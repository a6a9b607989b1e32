// Package trace models serverless invocation workloads at minute
// resolution, the time base PULSE works in ("the time resolution used for
// inter-arrival time is in minutes").
//
// The paper drives its evaluation with the Microsoft Azure Functions
// production trace [Shahrad et al., ATC'20], selecting the inter-arrival
// behaviour of 12 functions. That trace cannot be redistributed, so this
// package also provides a seeded synthetic generator (see generator.go)
// that reproduces the workload properties PULSE's evaluation depends on:
// per-function inter-arrival diversity (Fig. 1), temporal drift within a
// function (Fig. 2), and cumulative invocation peaks (Tables II/III).
package trace

import (
	"errors"
	"fmt"
	"sort"
)

// MinutesPerDay is the number of simulation minutes in a day.
const MinutesPerDay = 24 * 60

// Function is one serverless function's invocation series: Counts[t] is the
// number of invocations arriving during minute t.
//
// Start and End bound the function's lifetime for churn workloads: the
// function registers at the start of minute Start and deregisters at the
// start of minute End (exclusive; 0 means "lives to the horizon"). The zero
// value — Start == 0, End == 0 — is a function that exists for the whole
// trace, so every pre-churn trace is unchanged. Counts outside [Start, End)
// must be zero.
type Function struct {
	ID        int
	Name      string
	Archetype string // generator archetype that produced it ("" for loaded traces)
	Counts    []int
	Start     int // first minute the function exists (inclusive)
	End       int // first minute the function no longer exists (0 = horizon)
}

// EndMinute resolves the exclusive end of the function's lifetime against
// the trace horizon: an unset (zero) End means the function lives to the
// end.
func (f Function) EndMinute(horizon int) int {
	if f.End == 0 {
		return horizon
	}
	return f.End
}

// LiveAt reports whether the function exists during minute t.
func (f Function) LiveAt(t, horizon int) bool {
	return t >= f.Start && t < f.EndMinute(horizon)
}

// SetLifecycle bounds the function's lifetime to [start, end) and zeroes
// every invocation count outside it, keeping the trace self-consistent.
func (f *Function) SetLifecycle(start, end int) {
	f.Start, f.End = start, end
	for t := range f.Counts {
		if t < start || (end != 0 && t >= end) {
			f.Counts[t] = 0
		}
	}
}

// TotalInvocations returns the total invocation count of the function.
func (f Function) TotalInvocations() int {
	total := 0
	for _, c := range f.Counts {
		total += c
	}
	return total
}

// InvocationMinutes returns the sorted minutes with at least one invocation.
func (f Function) InvocationMinutes() []int {
	var out []int
	for t, c := range f.Counts {
		if c > 0 {
			out = append(out, t)
		}
	}
	return out
}

// InterArrivals returns the gaps, in minutes, between successive invocation
// minutes. A function with fewer than two active minutes has no
// inter-arrivals.
func (f Function) InterArrivals() []int {
	mins := f.InvocationMinutes()
	if len(mins) < 2 {
		return nil
	}
	out := make([]int, 0, len(mins)-1)
	for i := 1; i < len(mins); i++ {
		out = append(out, mins[i]-mins[i-1])
	}
	return out
}

// InterArrivalsInRange returns inter-arrivals computed only from invocation
// minutes t with from ≤ t < to. Figure 2 uses this to compare the first,
// middle, and last four days of the same function.
func (f Function) InterArrivalsInRange(from, to int) []int {
	var mins []int
	for t := from; t < to && t < len(f.Counts); t++ {
		if t >= 0 && f.Counts[t] > 0 {
			mins = append(mins, t)
		}
	}
	if len(mins) < 2 {
		return nil
	}
	out := make([]int, 0, len(mins)-1)
	for i := 1; i < len(mins); i++ {
		out = append(out, mins[i]-mins[i-1])
	}
	return out
}

// Trace is a fixed-horizon workload over a set of functions. All functions
// share the same horizon.
type Trace struct {
	Horizon   int // minutes
	Functions []Function
}

// Validate checks structural invariants: positive horizon, count slices of
// the right length, non-negative counts, unique IDs.
func (tr *Trace) Validate() error {
	if tr.Horizon <= 0 {
		return fmt.Errorf("trace: non-positive horizon %d", tr.Horizon)
	}
	if len(tr.Functions) == 0 {
		return errors.New("trace: no functions")
	}
	seen := make(map[int]bool, len(tr.Functions))
	for i := range tr.Functions {
		f := &tr.Functions[i]
		if seen[f.ID] {
			return fmt.Errorf("trace: duplicate function ID %d", f.ID)
		}
		seen[f.ID] = true
		if len(f.Counts) != tr.Horizon {
			return fmt.Errorf("trace: function %q has %d minutes, horizon is %d", f.Name, len(f.Counts), tr.Horizon)
		}
		for t, c := range f.Counts {
			if c < 0 {
				return fmt.Errorf("trace: function %q has negative count %d at minute %d", f.Name, c, t)
			}
		}
		if f.Start < 0 || f.Start >= tr.Horizon {
			return fmt.Errorf("trace: function %q starts at minute %d, horizon is %d", f.Name, f.Start, tr.Horizon)
		}
		end := f.EndMinute(tr.Horizon)
		if end <= f.Start || end > tr.Horizon {
			return fmt.Errorf("trace: function %q has lifetime [%d, %d), horizon is %d", f.Name, f.Start, end, tr.Horizon)
		}
		for t, c := range f.Counts {
			if c > 0 && (t < f.Start || t >= end) {
				return fmt.Errorf("trace: function %q invoked at minute %d outside its lifetime [%d, %d)", f.Name, t, f.Start, end)
			}
		}
	}
	return nil
}

// HasChurn reports whether any function registers after minute 0 or
// deregisters before the horizon — i.e. whether replaying the trace requires
// online lifecycle support.
func (tr *Trace) HasChurn() bool {
	for i := range tr.Functions {
		f := &tr.Functions[i]
		if f.Start != 0 || f.EndMinute(tr.Horizon) != tr.Horizon {
			return true
		}
	}
	return false
}

// AggregateCounts returns, per minute, the total invocations across all
// functions — the series in which the paper identifies "numerous peaks in
// invocations (cumulative for all concurrent functions)".
func (tr *Trace) AggregateCounts() []int {
	agg := make([]int, tr.Horizon)
	for i := range tr.Functions {
		for t, c := range tr.Functions[i].Counts {
			agg[t] += c
		}
	}
	return agg
}

// TotalInvocations returns the total invocation count across functions.
func (tr *Trace) TotalInvocations() int {
	total := 0
	for i := range tr.Functions {
		total += tr.Functions[i].TotalInvocations()
	}
	return total
}

// Slice returns a sub-trace covering minutes [from, to). Function IDs,
// names, and archetypes are preserved; counts are copied. Churn traces
// cannot be sliced: a lifetime boundary has no meaningful projection onto an
// arbitrary sub-window.
func (tr *Trace) Slice(from, to int) (*Trace, error) {
	if from < 0 || to > tr.Horizon || from >= to {
		return nil, fmt.Errorf("trace: invalid slice [%d, %d) of horizon %d", from, to, tr.Horizon)
	}
	if tr.HasChurn() {
		return nil, errors.New("trace: cannot slice a trace with function churn")
	}
	out := &Trace{Horizon: to - from, Functions: make([]Function, len(tr.Functions))}
	for i := range tr.Functions {
		f := &tr.Functions[i]
		counts := make([]int, to-from)
		copy(counts, f.Counts[from:to])
		out.Functions[i] = Function{ID: f.ID, Name: f.Name, Archetype: f.Archetype, Counts: counts}
	}
	return out, nil
}

// Peak is a local maximum of the aggregate invocation series.
type Peak struct {
	Minute int
	Count  int
}

// TopPeaks returns the n highest-volume peaks of the aggregate series,
// separated by at least minGap minutes so that one broad burst does not
// claim every slot. Peaks are returned by descending count. The paper
// "designate[s] two prominent peaks, characterized by the highest volume of
// invocations" — TopPeaks(2, gap) reproduces that selection.
func (tr *Trace) TopPeaks(n, minGap int) []Peak {
	if n <= 0 {
		return nil
	}
	if minGap < 0 {
		minGap = 0
	}
	agg := tr.AggregateCounts()
	order := make([]int, len(agg))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return agg[order[a]] > agg[order[b]] })
	var peaks []Peak
	for _, t := range order {
		if agg[t] == 0 {
			break
		}
		tooClose := false
		for _, p := range peaks {
			if abs(p.Minute-t) < minGap {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		peaks = append(peaks, Peak{Minute: t, Count: agg[t]})
		if len(peaks) == n {
			break
		}
	}
	return peaks
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
