package cluster

import (
	"fmt"
	"strings"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// fakeDynamic is a minimal DynamicPolicy: it keeps variant 0 alive for every
// live slot, issues dense append-only slots, and tombstones on deregister.
type fakeDynamic struct {
	names    []string
	live     []bool
	recorded [][]int
	slotSkew int // added to issued slots, to provoke the engine's mismatch check
}

func newFakeDynamic(names []string) *fakeDynamic {
	f := &fakeDynamic{names: append([]string(nil), names...)}
	f.live = make([]bool, len(names))
	for i := range f.live {
		f.live[i] = true
	}
	return f
}

func (f *fakeDynamic) Name() string { return "fake-dynamic" }

func (f *fakeDynamic) KeepAlive(int) []int {
	out := make([]int, len(f.names))
	for i := range out {
		if f.live[i] {
			out[i] = 0
		} else {
			out[i] = NoVariant
		}
	}
	return out
}

func (f *fakeDynamic) ColdVariant(_, _ int) int { return 0 }

func (f *fakeDynamic) RecordInvocations(_ int, counts []int) {
	cp := make([]int, len(counts))
	copy(cp, counts)
	f.recorded = append(f.recorded, cp)
}

func (f *fakeDynamic) RegisterFunction(name string, _ int) (int, error) {
	f.names = append(f.names, name)
	f.live = append(f.live, true)
	return len(f.names) - 1 + f.slotSkew, nil
}

func (f *fakeDynamic) DeregisterFunction(name string) error {
	for i, n := range f.names {
		if n == name && f.live[i] {
			f.live[i] = false
			return nil
		}
	}
	return fmt.Errorf("no live function %q", name)
}

// churnTrace builds a small hand-written churn workload:
//
//	f0 lives the whole horizon, f1 departs at minute 3, f2 arrives at
//	minute 2, f3 lives the window [1, 4).
func churnTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Horizon: 6, Functions: []trace.Function{
		{ID: 0, Name: "f0", Counts: []int{1, 0, 1, 0, 1, 0}},
		{ID: 1, Name: "f1", Counts: []int{0, 2, 1, 0, 0, 0}, End: 3},
		{ID: 2, Name: "f2", Counts: []int{0, 0, 1, 0, 0, 2}, Start: 2},
		{ID: 3, Name: "f3", Counts: []int{0, 1, 0, 1, 0, 0}, Start: 1, End: 4},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.HasChurn() {
		t.Fatal("hand-written churn trace reports no churn")
	}
	return tr
}

func churnConfig(tr *trace.Trace) Config {
	asg := make(models.Assignment, len(tr.Functions))
	return Config{
		Trace:      tr,
		Catalog:    testCatalog(),
		Assignment: asg,
		Cost:       DefaultCostModel(),
	}
}

func TestInitialPopulation(t *testing.T) {
	tr := churnTrace(t)
	asg := make(models.Assignment, len(tr.Functions))
	names, initAsg, err := InitialPopulation(tr, asg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"f0", "f1"}; len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("initial names = %v, want %v", names, want)
	}
	if len(initAsg) != 2 {
		t.Errorf("initial assignment = %v, want 2 entries", initAsg)
	}
	if _, _, err := InitialPopulation(tr, asg[:1]); err == nil {
		t.Error("short assignment accepted")
	}
	late := &trace.Trace{Horizon: 4, Functions: []trace.Function{
		{ID: 0, Name: "late", Counts: []int{0, 1, 0, 0}, Start: 1},
	}}
	if _, _, err := InitialPopulation(late, models.Assignment{0}); err == nil {
		t.Error("trace with no minute-0 population accepted")
	}
}

func TestChurnRequiresDynamicPolicy(t *testing.T) {
	tr := churnTrace(t)
	p := &fakePolicy{name: "static", alive: []int{0, 0, 0, 0}}
	_, err := Run(churnConfig(tr), p)
	if err == nil || !strings.Contains(err.Error(), "does not support online registration") {
		t.Fatalf("static policy on churn trace: err = %v, want online-registration error", err)
	}
}

// TestChurnEngineLifecycleStream pins the engine's per-minute ordering
// contract: slots are issued in trace order, register samples carry the
// first live minute, deregister samples carry the last lived minute, a
// holder gets a keep-alive sample every minute and a tombstoned one exactly
// one more (its NoVariant release edge — the sparse contract), and
// RecordInvocations sees zero counts for dead slots.
func TestChurnEngineLifecycleStream(t *testing.T) {
	tr := churnTrace(t)
	p := newFakeDynamic([]string{"f0", "f1"})
	rec := &telemetry.Recorder{}
	cfg := churnConfig(tr)
	cfg.Observer = rec
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}

	// Slot issuance: f0,f1 are the initial population; f3 (start 1) gets
	// slot 2 before f2 (start 2) gets slot 3.
	if want := []string{"f0", "f1", "f3", "f2"}; len(p.names) != 4 ||
		p.names[2] != want[2] || p.names[3] != want[3] {
		t.Fatalf("issued slots %v, want %v", p.names, want)
	}

	wantRegs := []telemetry.RegisterSample{
		{Minute: 1, Function: 2, Name: "f3", Family: 0},
		{Minute: 2, Function: 3, Name: "f2", Family: 0},
	}
	if len(rec.Registers) != len(wantRegs) {
		t.Fatalf("register samples %+v, want %+v", rec.Registers, wantRegs)
	}
	for i, want := range wantRegs {
		if rec.Registers[i] != want {
			t.Errorf("register[%d] = %+v, want %+v", i, rec.Registers[i], want)
		}
	}
	// f1 departs at the start of minute 3 (last lived minute 2); f3 at the
	// start of minute 4 (last lived minute 3).
	wantDeregs := []telemetry.DeregisterSample{
		{Minute: 2, Function: 1, Name: "f1"},
		{Minute: 3, Function: 2, Name: "f3"},
	}
	if len(rec.Deregisters) != len(wantDeregs) {
		t.Fatalf("deregister samples %+v, want %+v", rec.Deregisters, wantDeregs)
	}
	for i, want := range wantDeregs {
		if rec.Deregisters[i] != want {
			t.Errorf("deregister[%d] = %+v, want %+v", i, rec.Deregisters[i], want)
		}
	}

	// One keep-alive sample per holder per minute, one NoVariant release
	// sample in the tombstone minute, and silence afterwards.
	kaAt := func(minute, fn int) (telemetry.KeepAliveSample, bool) {
		for _, s := range rec.KeepAlives {
			if s.Minute == minute && s.Function == fn {
				return s, true
			}
		}
		return telemetry.KeepAliveSample{}, false
	}
	for _, check := range []struct {
		minute, fn, variant int
	}{
		{3, 1, NoVariant}, // f1 tombstoned from minute 3: its release edge
		{4, 2, NoVariant}, // f3 tombstoned from minute 4: its release edge
		{2, 1, 0},         // f1 still live at minute 2
		{5, 3, 0},         // f2 live to the end
	} {
		s, ok := kaAt(check.minute, check.fn)
		if !ok {
			t.Errorf("no keep-alive sample for slot %d at minute %d", check.fn, check.minute)
			continue
		}
		if s.Variant != check.variant {
			t.Errorf("minute %d slot %d keep-alive variant %d, want %d", check.minute, check.fn, s.Variant, check.variant)
		}
	}

	for _, rest := range [][2]int{{4, 1}, {5, 1}, {5, 2}} {
		if s, ok := kaAt(rest[0], rest[1]); ok {
			t.Errorf("resting slot %d got a keep-alive sample at minute %d: %+v", rest[1], rest[0], s)
		}
	}

	// RecordInvocations: dead slots report zero even if the trace row has
	// residual counts. f2's count at its arrival minute flows through.
	if got := p.recorded[3]; got[1] != 0 {
		t.Errorf("minute 3 counts %v: dead slot 1 got nonzero count", got)
	}
	if got := p.recorded[2]; got[3] != 1 {
		t.Errorf("minute 2 counts %v: fresh slot 3 missing its invocation", got)
	}

	wantInv := 0
	for _, f := range tr.Functions {
		for m, c := range f.Counts {
			if f.LiveAt(m, tr.Horizon) {
				wantInv += c
			}
		}
	}
	if res.Invocations != wantInv {
		t.Errorf("served %d invocations, want %d", res.Invocations, wantInv)
	}
}

func TestChurnEngineRejectsBadPolicies(t *testing.T) {
	tr := churnTrace(t)

	// Policy that issues the wrong slot for an arrival.
	skewed := newFakeDynamic([]string{"f0", "f1"})
	skewed.slotSkew = 7
	if _, err := Run(churnConfig(tr), skewed); err == nil || !strings.Contains(err.Error(), "issued slot") {
		t.Errorf("skewed slot issuance: err = %v, want slot mismatch", err)
	}

	// Policy that keeps a tombstoned slot alive.
	necro := &necromancerPolicy{fakeDynamic: newFakeDynamic([]string{"f0", "f1"})}
	if _, err := Run(churnConfig(tr), necro); err == nil || !strings.Contains(err.Error(), "deregistered function") {
		t.Errorf("keeping dead slot alive: err = %v, want deregistered-function error", err)
	}

	// Policy whose decision vector ignores new arrivals.
	stale := &staleLengthPolicy{fakeDynamic: newFakeDynamic([]string{"f0", "f1"})}
	if _, err := Run(churnConfig(tr), stale); err == nil || !strings.Contains(err.Error(), "decisions for") {
		t.Errorf("stale decision length: err = %v, want length mismatch", err)
	}
}

// necromancerPolicy keeps every issued slot alive, dead or not.
type necromancerPolicy struct{ *fakeDynamic }

func (n *necromancerPolicy) KeepAlive(int) []int {
	return make([]int, len(n.names)) // variant 0 for everyone
}

// staleLengthPolicy always answers for the initial population only.
type staleLengthPolicy struct{ *fakeDynamic }

func (s *staleLengthPolicy) KeepAlive(int) []int { return []int{0, 0} }
