package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSuite is the human form: every workload untraced (repeat times) and
// traced (once), every metric printed by name with its unit and sample
// count. Each measurement runs in a fresh process of this same binary, in
// the driver's form, so that one workload's heap (scale100k leaves
// gigabytes behind) is not the next one's environment. With repeat > 1 it
// then prints, per workload and end-to-end metric, each run's value, their
// relative spread and the metric's bound, and fails if a spread exceeds its
// bound: two runs of one commit must agree at least as well as the bound
// demands of two commits.
func runSuite(e *env, repeat int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pulsebench:", err)
		return 1
	}
	code := 0
	// child runs one measurement; its table goes straight to our stderr and
	// its result line comes back decoded.
	child := func(workload string, traced int) (map[string]float64, bool) {
		cmd := exec.Command(self, "-root", e.root, "-workload", workload,
			"-seed", strconv.FormatInt(e.seed, 10), "-seconds", strconv.Itoa(e.seconds), "-trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			code = 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var line struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if json.Unmarshal(lines[len(lines)-1], &line) != nil {
			fmt.Fprintf(os.Stderr, "pulsebench: %s printed no result\n", workload)
			return nil, false
		}
		values := make(map[string]float64, len(line.Metrics))
		for name, m := range line.Metrics {
			values[name] = m.Value
		}
		return values, true
	}

	values := make(map[string][]float64) // "workload metric" → one value per repetition
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			got, ok := child(w.Name, 0)
			if !ok {
				return 1
			}
			for _, d := range endToEnd {
				key := w.Name + " " + d.Name
				values[key] = append(values[key], got[d.Name])
			}
		}
	}
	for _, w := range workloads {
		if _, ok := child(w.Name, 1); !ok {
			return 1
		}
	}
	if repeat < 2 {
		return code
	}
	fmt.Printf("== repeatability over %d runs (spread = (max-min)/median)\n", repeat)
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.Name+" "+d.Name]
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			spread := (sorted[len(sorted)-1] - sorted[0]) / quantileSorted(sorted, 0.5)
			verdict := "ok"
			if spread > d.Bound {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("  %-10s %-16s %v %s  spread %.2f%%  bound %.0f%%  %s\n", w.Name, d.Name, v, d.Unit, spread*100, d.Bound*100, verdict)
		}
	}
	return code
}
