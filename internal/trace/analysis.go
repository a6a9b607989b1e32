package trace

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/stats"
)

// InterArrivalDistribution buckets a function's inter-arrival times that
// fall within the keep-alive window and reports, per offset minute
// 1..window, the percentage of those invocations arriving at that gap —
// the y-axis of the paper's Figures 1 and 2.
//
// Gaps larger than the window are excluded (they correspond to invocations
// the fixed keep-alive would miss anyway); the returned coverage is the
// fraction of all inter-arrivals that fell inside the window.
func InterArrivalDistribution(gaps []int, window int) (percent []float64, coverage float64, err error) {
	if window <= 0 {
		return nil, 0, fmt.Errorf("trace: non-positive window %d", window)
	}
	percent = make([]float64, window+1) // index = gap in minutes; [0] unused
	if len(gaps) == 0 {
		return percent, 0, nil
	}
	inWindow := 0
	for _, g := range gaps {
		if g < 0 {
			return nil, 0, fmt.Errorf("trace: negative inter-arrival %d", g)
		}
		if g >= 1 && g <= window {
			percent[g]++
			inWindow++
		}
	}
	if inWindow > 0 {
		for i := range percent {
			percent[i] = percent[i] / float64(inWindow) * 100
		}
	}
	return percent, float64(inWindow) / float64(len(gaps)), nil
}

// FunctionSummary captures the headline statistics of a function's series,
// used in trace reports and to sanity-check generated workloads.
type FunctionSummary struct {
	ID              int
	Name            string
	Archetype       string
	Invocations     int
	ActiveMinutes   int
	MeanInterArriv  float64
	CVInterArriv    float64
	P99InterArriv   int
	WithinWindowPct float64 // % of inter-arrivals ≤ 10 min
}

// Summarize computes a FunctionSummary for f.
func Summarize(f *Function) FunctionSummary {
	s := FunctionSummary{ID: f.ID, Name: f.Name, Archetype: f.Archetype}
	s.Invocations = f.TotalInvocations()
	s.ActiveMinutes = len(f.InvocationMinutes())
	gaps := f.InterArrivals()
	if len(gaps) == 0 {
		return s
	}
	h := stats.NewIntHistogram()
	within := 0
	for _, g := range gaps {
		_ = h.Add(g) // gaps are non-negative by construction
		if g <= 10 {
			within++
		}
	}
	s.MeanInterArriv = h.Mean()
	s.CVInterArriv = h.CV()
	if p, err := h.Percentile(99); err == nil {
		s.P99InterArriv = p
	}
	s.WithinWindowPct = float64(within) / float64(len(gaps)) * 100
	return s
}

// SummarizeAll summarizes every function in the trace.
func SummarizeAll(tr *Trace) []FunctionSummary {
	out := make([]FunctionSummary, len(tr.Functions))
	for i := range tr.Functions {
		out[i] = Summarize(&tr.Functions[i])
	}
	return out
}
