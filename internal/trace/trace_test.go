package trace

import (
	"testing"
	"testing/quick"
)

func mkFunc(id int, counts []int) Function {
	return Function{ID: id, Name: "f", Counts: counts}
}

func TestFunctionBasics(t *testing.T) {
	f := mkFunc(0, []int{0, 2, 0, 0, 1, 0, 3})
	if got := f.TotalInvocations(); got != 6 {
		t.Errorf("TotalInvocations = %d, want 6", got)
	}
	mins := f.InvocationMinutes()
	want := []int{1, 4, 6}
	if len(mins) != len(want) {
		t.Fatalf("InvocationMinutes = %v", mins)
	}
	for i := range want {
		if mins[i] != want[i] {
			t.Errorf("InvocationMinutes[%d] = %d, want %d", i, mins[i], want[i])
		}
	}
	gaps := f.InterArrivals()
	wantGaps := []int{3, 2}
	for i := range wantGaps {
		if gaps[i] != wantGaps[i] {
			t.Errorf("InterArrivals = %v, want %v", gaps, wantGaps)
			break
		}
	}
}

func TestInterArrivalsDegenerate(t *testing.T) {
	if got := mkFunc(0, []int{0, 0, 0}).InterArrivals(); got != nil {
		t.Errorf("no invocations: gaps = %v, want nil", got)
	}
	if got := mkFunc(0, []int{0, 1, 0}).InterArrivals(); got != nil {
		t.Errorf("single invocation: gaps = %v, want nil", got)
	}
}

func TestInterArrivalsInRange(t *testing.T) {
	f := mkFunc(0, []int{1, 0, 1, 0, 1, 0, 0, 1})
	gaps := f.InterArrivalsInRange(2, 8)
	want := []int{2, 3}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Errorf("gaps = %v, want %v", gaps, want)
		}
	}
	if got := f.InterArrivalsInRange(5, 7); got != nil {
		t.Errorf("empty range gaps = %v, want nil", got)
	}
	// Out-of-bounds ranges are clamped, not panics.
	_ = f.InterArrivalsInRange(-5, 100)
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{Horizon: 3, Functions: []Function{mkFunc(0, []int{0, 1, 0})}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Horizon: 0, Functions: []Function{mkFunc(0, nil)}},
		{Horizon: 3},
		{Horizon: 3, Functions: []Function{mkFunc(0, []int{0, 1})}},
		{Horizon: 2, Functions: []Function{mkFunc(0, []int{0, -1})}},
		{Horizon: 1, Functions: []Function{mkFunc(0, []int{1}), mkFunc(0, []int{1})}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestAggregateAndTotal(t *testing.T) {
	tr := &Trace{Horizon: 3, Functions: []Function{
		mkFunc(0, []int{1, 0, 2}),
		{ID: 1, Name: "g", Counts: []int{0, 3, 1}},
	}}
	agg := tr.AggregateCounts()
	want := []int{1, 3, 3}
	for i := range want {
		if agg[i] != want[i] {
			t.Errorf("AggregateCounts = %v, want %v", agg, want)
			break
		}
	}
	if got := tr.TotalInvocations(); got != 7 {
		t.Errorf("TotalInvocations = %d, want 7", got)
	}
}

func TestSlice(t *testing.T) {
	tr := &Trace{Horizon: 5, Functions: []Function{mkFunc(0, []int{1, 2, 3, 4, 5})}}
	sub, err := tr.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Horizon != 3 {
		t.Errorf("sub horizon = %d, want 3", sub.Horizon)
	}
	want := []int{2, 3, 4}
	for i := range want {
		if sub.Functions[0].Counts[i] != want[i] {
			t.Errorf("sub counts = %v, want %v", sub.Functions[0].Counts, want)
			break
		}
	}
	// Mutating the slice must not affect the original.
	sub.Functions[0].Counts[0] = 99
	if tr.Functions[0].Counts[1] == 99 {
		t.Error("Slice aliases original counts")
	}
	for _, c := range [][2]int{{-1, 3}, {0, 6}, {3, 3}, {4, 2}} {
		if _, err := tr.Slice(c[0], c[1]); err == nil {
			t.Errorf("Slice(%d,%d) should fail", c[0], c[1])
		}
	}
}

func TestTopPeaks(t *testing.T) {
	tr := &Trace{Horizon: 10, Functions: []Function{
		mkFunc(0, []int{0, 5, 0, 0, 9, 8, 0, 0, 7, 0}),
	}}
	peaks := tr.TopPeaks(2, 3)
	if len(peaks) != 2 {
		t.Fatalf("peaks = %v", peaks)
	}
	if peaks[0].Minute != 4 || peaks[0].Count != 9 {
		t.Errorf("peak0 = %+v, want minute 4 count 9", peaks[0])
	}
	// Minute 5 (count 8) is within the 3-minute gap of minute 4; the next
	// eligible peak is minute 8 (count 7).
	if peaks[1].Minute != 8 || peaks[1].Count != 7 {
		t.Errorf("peak1 = %+v, want minute 8 count 7", peaks[1])
	}
	if got := tr.TopPeaks(0, 3); got != nil {
		t.Errorf("TopPeaks(0) = %v, want nil", got)
	}
	empty := &Trace{Horizon: 3, Functions: []Function{mkFunc(0, []int{0, 0, 0})}}
	if got := empty.TopPeaks(2, 1); len(got) != 0 {
		t.Errorf("peaks of silent trace = %v", got)
	}
}

func TestTopPeaksNegativeGap(t *testing.T) {
	tr := &Trace{Horizon: 4, Functions: []Function{mkFunc(0, []int{1, 2, 3, 4})}}
	peaks := tr.TopPeaks(2, -5)
	if len(peaks) != 2 || peaks[0].Minute != 3 || peaks[1].Minute != 2 {
		t.Errorf("peaks with negative gap = %v", peaks)
	}
}

// Property: inter-arrivals of any counts series are all ≥ 1 and sum to the
// span between first and last invocation minute.
func TestInterArrivalInvariant(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v % 3)
		}
		fn := mkFunc(0, counts)
		gaps := fn.InterArrivals()
		mins := fn.InvocationMinutes()
		sum := 0
		for _, g := range gaps {
			if g < 1 {
				return false
			}
			sum += g
		}
		if len(mins) >= 2 {
			return sum == mins[len(mins)-1]-mins[0]
		}
		return len(gaps) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
