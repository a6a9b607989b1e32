package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/provenance"
)

// newTracedLoadRuntime is newLoadRuntime with a tracer attached — the
// constructor shape RunTracerDelta needs.
func newTracedLoadRuntime(t *testing.T, tracer *provenance.Tracer) *Runtime {
	t.Helper()
	cat, asg := testSetup(t)
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Catalog:    cat,
		Assignment: asg,
		Policy:     p,
		Clock:      NewManualClock(time.Unix(0, 0)),
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunTracerDeltaValidation(t *testing.T) {
	mk := func(fns int, tr *provenance.Tracer) (*Runtime, error) {
		return newTracedLoadRuntime(t, tr), nil
	}
	if _, err := RunTracerDelta(TracerDeltaConfig{Duration: time.Millisecond}); err == nil {
		t.Error("tracer delta without a constructor accepted")
	}
	if _, err := RunTracerDelta(TracerDeltaConfig{NewRuntime: mk}); err == nil {
		t.Error("zero cell duration accepted")
	}
	if _, err := RunTracerDelta(TracerDeltaConfig{NewRuntime: mk, Duration: time.Millisecond, Stride: -1}); err == nil {
		t.Error("negative stride accepted")
	}
}

// TestRunTracerDeltaSmoke runs the off/on pair with a dense stride and
// checks the delta actually measured sampling: both cells served traffic,
// the on-cell tracer counted every attempt, and the published fields are
// internally consistent.
func TestRunTracerDeltaSmoke(t *testing.T) {
	var tracers []*provenance.Tracer
	d, err := RunTracerDelta(TracerDeltaConfig{
		Functions: 3,
		Duration:  10 * time.Millisecond,
		Seed:      1,
		StepEvery: 5 * time.Millisecond,
		Stride:    2,
		NewRuntime: func(fns int, tr *provenance.Tracer) (*Runtime, error) {
			if fns != 3 {
				t.Errorf("cell asked for %d functions, want 3", fns)
			}
			tracers = append(tracers, tr)
			return newTracedLoadRuntime(t, tr), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tracers) != 2 || tracers[0] == nil || tracers[1] == nil {
		t.Fatalf("delta built %d runtimes, want an off and an on cell with tracers attached", len(tracers))
	}
	if st := tracers[0].Stats(); st.Enabled || st.Attempts != 0 {
		t.Errorf("off cell's tracer sampled: %+v", st)
	}
	if d.Mode != ModeEpoch || d.Stride != 2 || d.GuardPct != TracerOverheadGuardPct {
		t.Errorf("delta shape %+v, want epoch stride 2 with the published guard", d)
	}
	if d.Off.Invocations == 0 || d.On.Invocations == 0 || d.Off.Errors != 0 || d.On.Errors != 0 {
		t.Errorf("cells did not serve cleanly: off %+v on %+v", d.Off, d.On)
	}
	if d.OffThroughput != d.Off.Throughput || d.OnThroughput != d.On.Throughput {
		t.Errorf("published throughputs diverge from cell results: %+v", d)
	}
	if d.Attempts != uint64(d.On.Invocations) || d.Sampled != d.Attempts/2 {
		t.Errorf("on cell attempts %d sampled %d, want every one of %d invocations counted and half sampled",
			d.Attempts, d.Sampled, d.On.Invocations)
	}
	if d.WithinGuard != (d.OverheadPct < TracerOverheadGuardPct) {
		t.Errorf("guard verdict inconsistent: %+v", d)
	}
}

func TestRunMatrixValidation(t *testing.T) {
	mk := func(fns int, mode string) (*Runtime, error) { return newLoadRuntime(t, mode), nil }
	if _, err := RunMatrix(MatrixConfig{Duration: time.Millisecond}); err == nil {
		t.Error("matrix without a constructor accepted")
	}
	if _, err := RunMatrix(MatrixConfig{NewRuntime: mk}); err == nil {
		t.Error("zero cell duration accepted")
	}
	if _, err := RunMatrix(MatrixConfig{NewRuntime: mk, Duration: time.Millisecond, Modes: []string{"nope"}}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := RunMatrix(MatrixConfig{NewRuntime: mk, Duration: time.Millisecond, GOMAXPROCS: []int{0}}); err == nil {
		t.Error("non-positive GOMAXPROCS accepted")
	}
	if _, err := RunMatrix(MatrixConfig{NewRuntime: mk, Duration: time.Millisecond, Workers: []int{4, -1}}); err == nil {
		t.Error("negative worker count accepted")
	}
}

// TestRunMatrixSmoke runs a tiny 2×1×1×2 matrix and checks the sweep
// produced every cell, restored GOMAXPROCS, and summarized into rows with
// both modes and a populated speedup.
func TestRunMatrixSmoke(t *testing.T) {
	prev := goruntime.GOMAXPROCS(0)
	var cells int
	results, err := RunMatrix(MatrixConfig{
		GOMAXPROCS: []int{1, 2},
		Functions:  []int{3},
		Mixes:      []string{MixHotspot},
		Duration:   10 * time.Millisecond,
		Seed:       1,
		StepEvery:  5 * time.Millisecond,
		NewRuntime: func(fns int, mode string) (*Runtime, error) {
			if fns != 3 {
				t.Errorf("cell asked for %d functions, want 3", fns)
			}
			return newLoadRuntime(t, mode), nil
		},
		Progress: func(LoadResult) { cells++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := goruntime.GOMAXPROCS(0); got != prev {
		t.Errorf("GOMAXPROCS left at %d, want %d restored", got, prev)
	}
	if want := 2 * 1 * 1 * 2; len(results) != want || cells != want {
		t.Fatalf("matrix produced %d results (%d progress calls), want %d", len(results), cells, want)
	}
	for _, r := range results {
		if r.Invocations == 0 || r.Errors != 0 {
			t.Errorf("cell %s/gmp%d: %d invocations, %d errors", r.Mode, r.GOMAXPROCS, r.Invocations, r.Errors)
		}
		if r.Workers != 2*r.GOMAXPROCS {
			t.Errorf("cell %s/gmp%d: workers %d, want default 2×GOMAXPROCS", r.Mode, r.GOMAXPROCS, r.Workers)
		}
	}
	points := SummarizeMatrix(results)
	if len(points) != 2 {
		t.Fatalf("summary has %d rows, want 2", len(points))
	}
	if points[0].GOMAXPROCS != 1 || points[1].GOMAXPROCS != 2 {
		t.Errorf("summary rows out of sweep order: %+v", points)
	}
	for _, p := range points {
		if len(p.Throughput) != 2 {
			t.Errorf("row %+v missing modes", p)
		}
		if p.SpeedupEpochVsSerial <= 0 {
			t.Errorf("row %+v has an unpopulated speedup", p)
		}
	}
}
