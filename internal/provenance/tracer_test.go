package provenance

import (
	"testing"
)

func TestTracerDisabledAndNil(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Sample() {
		t.Error("nil tracer sampled")
	}
	nilTracer.Tap(nil)
	nilTracer.Record(Trace{})
	if got := nilTracer.Snapshot(0); got != nil {
		t.Errorf("nil Snapshot = %v", got)
	}
	if st := nilTracer.Stats(); st.Enabled || st.Stride != 0 {
		t.Errorf("nil Stats = %+v", st)
	}

	tr := NewTracer(TracerConfig{})
	if tr.Sample() {
		t.Error("disabled tracer sampled")
	}
	if st := tr.Stats(); st.Enabled || st.Attempts != 0 || st.Capacity != DefaultTraceCapacity {
		t.Errorf("disabled Stats = %+v", st)
	}
}

// Stride-K sampling is a pure function of the attempt count: exactly
// floor(attempts/K) of the first N attempts sample, regardless of outcome.
func TestTracerStrideSampling(t *testing.T) {
	tr := NewTracer(TracerConfig{Stride: 3, Capacity: 8})
	sampled := 0
	for i := 1; i <= 10; i++ {
		if tr.Sample() {
			sampled++
			tr.Record(Trace{Minute: i})
		}
	}
	if sampled != 3 {
		t.Errorf("sampled %d of 10 at stride 3, want 3", sampled)
	}
	st := tr.Stats()
	if st.Attempts != 10 || st.Sampled != 3 || !st.Enabled || st.Stride != 3 {
		t.Errorf("Stats = %+v", st)
	}
}

// The ring retains the newest Capacity traces, oldest first, with 1-based
// monotonic sequence numbers; limit trims from the old end.
func TestTracerSnapshotRing(t *testing.T) {
	tr := NewTracer(TracerConfig{Stride: 1, Capacity: 4})
	for i := 0; i < 6; i++ {
		if !tr.Sample() {
			t.Fatalf("stride 1 skipped attempt %d", i)
		}
		tr.Record(Trace{Minute: i, Function: i})
	}
	got := tr.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("snapshot len %d, want 4", len(got))
	}
	for i, trc := range got {
		wantMinute := i + 2 // 0 and 1 were overwritten
		if trc.Minute != wantMinute || trc.Seq != uint64(wantMinute+1) {
			t.Errorf("snapshot[%d] = %+v, want minute %d seq %d", i, trc, wantMinute, wantMinute+1)
		}
	}
	if lim := tr.Snapshot(2); len(lim) != 2 || lim[0].Minute != 4 {
		t.Errorf("Snapshot(2) = %+v, want newest two", lim)
	}
}

// The tap receives every recorded trace with its sequence stamped, and
// uninstalls cleanly.
func TestTracerTap(t *testing.T) {
	tr := NewTracer(TracerConfig{Stride: 1})
	var tapped []Trace
	tr.Tap(func(trc Trace) { tapped = append(tapped, trc) })
	tr.Sample()
	tr.Record(Trace{Minute: 7})
	if len(tapped) != 1 || tapped[0].Seq != 1 || tapped[0].Minute != 7 {
		t.Fatalf("tapped %+v", tapped)
	}
	tr.Tap(nil)
	tr.Sample()
	tr.Record(Trace{Minute: 8})
	if len(tapped) != 1 {
		t.Errorf("tap fired after uninstall: %+v", tapped)
	}
}

// The disabled fast path is the pinned cost of carrying a tracer on the
// Invoke path: one atomic load, zero allocations. Run by the CI alloc job.
func TestTracerDisabledSampleZeroAllocs(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	if allocs := testing.AllocsPerRun(1000, func() {
		if tr.Sample() {
			t.Fatal("disabled tracer sampled")
		}
	}); allocs != 0 {
		t.Errorf("disabled Sample allocates %v/op, want 0", allocs)
	}
	var nilTracer *Tracer
	if allocs := testing.AllocsPerRun(1000, func() {
		if nilTracer.Sample() {
			t.Fatal("nil tracer sampled")
		}
	}); allocs != 0 {
		t.Errorf("nil Sample allocates %v/op, want 0", allocs)
	}
}
