package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// sample is one reported metric value with the number of measurements
// behind it.
type sample struct {
	value float64
	unit  string
	n     int
}

// result is one run of one workload: the metrics it measured and the
// outcome of its correctness checks.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]sample
	failures  []string // failed correctness checks, in order
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: make(map[string]sample)}
}

func (r *result) set(name string, value float64, unit string, n int) {
	r.metrics[name] = sample{value: value, unit: unit, n: n}
}

// check records a failed correctness check; the run still completes so the
// report shows everything that is wrong, and the command exits non-zero.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.failures) == 0 && r.failed == 0 }

// writeContract prints the driver's result line: one JSON object with
// exactly correct, attempted, failed and metrics, the metrics being every
// name in defs. A metric the run did not produce is an error, not a hole.
func (r *result) writeContract(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		s, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		}
		out.Metrics[d.Name] = value{s.value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeTable prints every metric by name with its unit and sample count.
func (r *result) writeTable(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end metrics first, in BENCHMARK.json order; then layers.
		ei, ej := endToEndIndex(names[i]), endToEndIndex(names[j])
		if ei != ej {
			return ei < ej
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %t\n", r.workload, r.attempted, r.failed, r.correct())
	for _, name := range names {
		s := r.metrics[name]
		fmt.Fprintf(w, "  %-40s %16.4f %-8s n=%d\n", name, s.value, s.unit, s.n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}

// Order statistics over small sample sets, same rank convention as hist.

func quantileSorted[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileRank(len(sorted), q)]
}

// quantileRank is the index of the ceil(q*n)-th smallest of n samples.
func quantileRank(n int, q float64) int {
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	return min(max(rank, 1), n) - 1
}

func medianInt(v []int64) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantileSorted(s, 0.5)
}

// medianFloat is the conventional median: the mean of the two middle values
// of an even-sized sample. The reported rates and latencies are medians of a
// handful of windows, and this keeps them from snapping to one window's
// histogram bucket.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
