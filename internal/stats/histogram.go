package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// IntHistogram counts occurrences of small non-negative integers: the
// inter-arrival times, in minutes, that the Wild predictor and the trace
// statistics summarize by mean, CV and percentiles.
//
// The zero value is ready to use.
type IntHistogram struct {
	counts map[int]int
	total  int
}

// NewIntHistogram returns an empty histogram.
func NewIntHistogram() *IntHistogram {
	return &IntHistogram{counts: make(map[int]int)}
}

// Add records one observation of value v. Negative values are rejected with
// an error since inter-arrival times can never be negative.
func (h *IntHistogram) Add(v int) error {
	if v < 0 {
		return fmt.Errorf("stats: IntHistogram.Add(%d): negative value", v)
	}
	if h.counts == nil {
		h.counts = make(map[int]int)
	}
	h.counts[v]++
	h.total++
	return nil
}

// Total returns the total number of observations.
func (h *IntHistogram) Total() int { return h.total }

// Values returns the distinct observed values in ascending order.
func (h *IntHistogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// Mean returns the mean observed value, or 0 when empty.
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for v, c := range h.counts {
		s += float64(v) * float64(c)
	}
	return s / float64(h.total)
}

// CV returns the coefficient of variation of the observations, used by the
// Wild predictor to classify heavy-tailed inter-arrival distributions.
func (h *IntHistogram) CV() float64 {
	if h.total == 0 {
		return 0
	}
	m := h.Mean()
	if m == 0 {
		return 0
	}
	var ss float64
	for v, c := range h.counts {
		d := float64(v) - m
		ss += d * d * float64(c)
	}
	return math.Sqrt(ss/float64(h.total)) / m
}

// Percentile returns the p-th percentile of the observed values using the
// nearest-rank method on the expanded multiset. Empty histograms return
// ErrEmpty.
func (h *IntHistogram) Percentile(p float64) (int, error) {
	if h.total == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	rank := int(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	cum := 0
	for _, v := range h.Values() {
		cum += h.counts[v]
		if cum >= rank {
			return v, nil
		}
	}
	// Unreachable: cumulative count always reaches total.
	vs := h.Values()
	return vs[len(vs)-1], nil
}

// String renders a compact "value:count" listing for debugging.
func (h *IntHistogram) String() string {
	var b strings.Builder
	b.WriteString("IntHistogram{")
	for i, v := range h.Values() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%d", v, h.counts[v])
	}
	b.WriteString("}")
	return b.String()
}
