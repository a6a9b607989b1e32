package core

// Differential proofs for the active-set index: idle-skip must be a pure
// iteration-order optimization — every Schedule, KeepAlive decision,
// downgrade, and snapshot must be bit-identical to the every-slot reference
// controller (reference_test.go) for any interleaving of idle slots, active
// slots, and lifecycle churn. The property test drives both controllers with
// one random stream and compares everything; the alloc pin holds the
// idle-minute cost at zero for a million mostly-idle slots.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// scanRecorder is a self-observing Recorder — an observer that wants scan
// timings must not make the controller scan more than its active set. It
// keeps the deterministic streams for DeepEqual and the gather scan samples
// for the sparse-scan assertion.
type scanRecorder struct {
	telemetry.Recorder
	scans []telemetry.ScanSample
}

func (r *scanRecorder) ObserveStep(telemetry.StepSample)   {}
func (r *scanRecorder) ObserveFlush(telemetry.FlushSample) {}
func (r *scanRecorder) ObserveScan(s telemetry.ScanSample) { r.scans = append(r.scans, s) }

// TestIdleSkipDifferential drives the controller and the every-slot
// reference controller with an identical random workload — mostly-idle
// slots, a few hot ones, and register/deregister churn — and requires
// bit-identical per-minute decisions, downgrade totals, peak counts, observer
// streams, and final snapshots, for both the serial and the sharded
// controller. The controller carries a SelfObserver, and its gather must
// still report the active-set size.
func TestIdleSkipDifferential(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				testIdleSkipDifferential(t, shards, seed)
			})
		}
	}
}

func testIdleSkipDifferential(t *testing.T, shards int, seed int64) {
	cat := models.PaperCatalog()
	const n = 48
	sparseRec, refRec := &scanRecorder{}, &telemetry.Recorder{}
	if !telemetry.WantsSelf(sparseRec) {
		t.Fatal("the test observer is not a SelfObserver")
	}
	cfg := Config{Catalog: cat, Assignment: uniformAssignment(cat, n), Shards: shards, Observer: sparseRec}
	sparse, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sparse.Close() })
	cfg.Observer = refRec
	ref := newRefController(cfg)

	rng := rand.New(rand.NewSource(seed))
	live := []string{} // names eligible for deregistration
	nextDyn := 0
	counts := make([]int, n)
	var invoked []int32

	for minute := 0; minute < 150; minute++ {
		// Lifecycle churn: identical calls against both controllers.
		if rng.Float64() < 0.15 {
			name := fmt.Sprintf("dyn-%d", nextDyn)
			nextDyn++
			fam := rng.Intn(len(cat.Families))
			s1, err := sparse.RegisterFunction(name, fam)
			if err != nil {
				t.Fatalf("minute %d: register: %v", minute, err)
			}
			if s2 := ref.register(name, fam); s1 != s2 {
				t.Fatalf("minute %d: slot disagreement %d vs %d", minute, s1, s2)
			}
			live = append(live, name)
			counts = append(counts, 0)
		}
		if len(live) > 0 && rng.Float64() < 0.1 {
			i := rng.Intn(len(live))
			name := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := sparse.DeregisterFunction(name); err != nil {
				t.Fatalf("minute %d: deregister sparse: %v", minute, err)
			}
			ref.deregister(name)
		}

		sparseRec.scans = sparseRec.scans[:0]
		d1 := sparse.KeepAlive(minute)
		d2 := ref.KeepAlive(minute)
		if !reflect.DeepEqual(d1, d2) {
			t.Fatalf("minute %d: decisions diverge", minute)
		}
		// One serial scan sample per sparse gather, sized by the active set.
		if got := sparseRec.scans; len(got) != 1 || got[0].Shard != -1 || got[0].Functions != len(sparse.ActiveSlots()) || got[0].Minute != minute {
			t.Fatalf("minute %d: sparse gather reported scans %+v, want one {Shard -1, Functions %d}", minute, got, len(sparse.ActiveSlots()))
		}

		// Mostly-idle workload: a few hot slots, a thin tail of rare ones.
		invoked = invoked[:0]
		for fn := range counts {
			counts[fn] = 0
			if !sparse.FunctionActive(fn) {
				continue
			}
			p := 0.02
			if fn%7 == 0 {
				p = 0.5
			}
			if rng.Float64() < p {
				counts[fn] = 1 + rng.Intn(3)
				invoked = append(invoked, int32(fn))
			}
		}
		sparse.RecordInvocationsSparse(minute, counts, invoked)
		ref.RecordInvocations(minute, counts)
	}

	if sparse.TotalDowngrades() != ref.totalDowngrades {
		t.Errorf("downgrades diverge: idle-skip %d, reference %d", sparse.TotalDowngrades(), ref.totalDowngrades)
	}
	if sparse.PeakMinutes() != ref.peakMinutes {
		t.Errorf("peak minutes diverge: idle-skip %d, reference %d", sparse.PeakMinutes(), ref.peakMinutes)
	}
	if !reflect.DeepEqual(sparse.Snapshot(), ref.Snapshot()) {
		t.Error("snapshots diverge after identical streams")
	}
	for _, s := range []struct {
		kind      string
		got, want any
	}{
		{"schedules", sparseRec.Schedules, refRec.Schedules},
		{"peaks", sparseRec.Peaks, refRec.Peaks},
		{"downgrades", sparseRec.Downgrades, refRec.Downgrades},
	} {
		if !reflect.DeepEqual(s.got, s.want) {
			t.Errorf("%s stream diverges between the controller and the reference", s.kind)
		}
	}
	if len(refRec.Schedules) == 0 || len(refRec.Downgrades) == 0 {
		t.Errorf("%d schedule and %d downgrade samples observed: the streams compared are empty",
			len(refRec.Schedules), len(refRec.Downgrades))
	}
}

// TestIdleSkipSparseDenseEntryPointsAgree: the two record entry points are
// interchangeable on one controller — feeding the sparse entry point the
// invoked list derived from the dense counts vector leaves every decision
// and the snapshot identical to a controller fed densely.
func TestIdleSkipSparseDenseEntryPointsAgree(t *testing.T) {
	cat := models.PaperCatalog()
	const n = 24
	mk := func() *Pulse {
		p, err := New(Config{Catalog: cat, Assignment: uniformAssignment(cat, n)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	var invoked []int32
	for minute := 0; minute < 80; minute++ {
		da := a.KeepAlive(minute)
		db := b.KeepAlive(minute)
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("minute %d: decisions diverge", minute)
		}
		invoked = invoked[:0]
		for fn := range counts {
			counts[fn] = 0
			if rng.Float64() < 0.2 {
				counts[fn] = 1
				invoked = append(invoked, int32(fn))
			}
		}
		a.RecordInvocationsSparse(minute, counts, invoked)
		b.RecordInvocations(minute, counts)
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Error("snapshots diverge between sparse and dense entry points")
	}
}

// TestIdleSkipMinuteZeroAllocs pins the idle-minute cost of a
// million-function controller at zero heap allocations — first while a
// small active set still holds live plans (the minute touches only those
// slots), then after the plans drain and the active set empties (the minute
// touches nothing). This is the property that makes the minute barrier
// scale with active functions instead of registered ones.
func TestIdleSkipMinuteZeroAllocs(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	cat := models.PaperCatalog()
	p, err := New(Config{Catalog: cat, Assignment: uniformAssignment(cat, n), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	counts := make([]int, n)
	hot := []int32{0, int32(n / 2), int32(n - 1)}
	minute := 0
	// Warm up: a handful of hot slots invoked every minute, the rest idle,
	// long enough for row reuse and priority state to reach steady state.
	for ; minute < 30; minute++ {
		p.KeepAlive(minute)
		for _, fn := range hot {
			counts[fn] = 1
		}
		p.RecordInvocationsSparse(minute, counts, hot)
		for _, fn := range hot {
			counts[fn] = 0
		}
	}

	// Phase 1: idle minutes while the hot slots' plans are still live. All
	// runs stay inside the plan window so no row compaction (and no free-
	// list growth) can occur mid-measurement.
	window := p.Config().Window
	runs := window - 3
	if allocs := testing.AllocsPerRun(runs, func() {
		p.KeepAlive(minute)
		p.RecordInvocationsSparse(minute, counts, nil)
		minute++
	}); allocs != 0 {
		t.Errorf("idle minute with resident active set allocates %v per run, want 0 (n=%d)", allocs, n)
	}

	// Let the remaining plans drain and compact (the one-time free-list
	// growth lands here, outside any measurement).
	for i := 0; i < window+2; i++ {
		p.KeepAlive(minute)
		p.RecordInvocationsSparse(minute, counts, nil)
		minute++
	}
	if got := len(p.ActiveSlots()); got != 0 {
		t.Fatalf("active set holds %d slots after drain, want 0", got)
	}

	// Phase 2: fully-idle minutes over the drained population.
	if allocs := testing.AllocsPerRun(200, func() {
		p.KeepAlive(minute)
		p.RecordInvocationsSparse(minute, counts, nil)
		minute++
	}); allocs != 0 {
		t.Errorf("fully-idle minute allocates %v per run, want 0 (n=%d)", allocs, n)
	}
}
