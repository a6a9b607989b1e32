package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/trace"
)

func TestSolveEmptyAndTrivial(t *testing.T) {
	sol := solve(nil, 10)
	if sol.Value != 0 || sol.Weight != 0 || len(sol.Choice) != 0 {
		t.Errorf("empty solve = %+v", sol)
	}
	// One group, budget excludes everything.
	sol = solve([]Group{{Items: []Item{{Value: 5, Weight: 100}}}}, 50)
	if sol.Choice[0] != -1 || sol.Value != 0 {
		t.Errorf("infeasible item chosen: %+v", sol)
	}
}

func TestSolveKnownOptimum(t *testing.T) {
	// Two groups, budget 10: best is item1 of g0 (v=6,w=6) + item0 of g1
	// (v=3,w=4) = 9, not the greedy v=8,w=9 from g0 alone.
	groups := []Group{
		{Items: []Item{{Value: 4, Weight: 3}, {Value: 6, Weight: 6}, {Value: 8, Weight: 9}}},
		{Items: []Item{{Value: 3, Weight: 4}, {Value: 5, Weight: 8}}},
	}
	sol := solve(groups, 10)
	if sol.Value != 9 {
		t.Errorf("value = %v, want 9 (choice %v)", sol.Value, sol.Choice)
	}
	if sol.Choice[0] != 1 || sol.Choice[1] != 0 {
		t.Errorf("choice = %v, want [1 0]", sol.Choice)
	}
	if sol.Weight != 10 {
		t.Errorf("weight = %v, want 10", sol.Weight)
	}
	if sol.Nodes <= 0 {
		t.Error("node counter not advancing")
	}
}

func TestSolveNegativeValuesNeverChosen(t *testing.T) {
	groups := []Group{{Items: []Item{{Value: -5, Weight: 1}}}}
	sol := solve(groups, 10)
	if sol.Choice[0] != -1 {
		t.Error("negative-value item chosen over none")
	}
}

// Property: solve matches exhaustive enumeration on random small instances.
func TestSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nGroups := rng.Intn(5) + 1
		groups := make([]Group, nGroups)
		for g := range groups {
			nItems := rng.Intn(4) + 1
			items := make([]Item, nItems)
			for i := range items {
				items[i] = Item{
					Value:  math.Round(rng.Float64()*100) / 10,
					Weight: math.Round(rng.Float64()*100) / 10,
				}
			}
			groups[g] = Group{Items: items}
		}
		budget := rng.Float64() * 20
		fast := solve(groups, budget)
		slow := bruteForce(groups, budget)
		if math.Abs(fast.Value-slow.Value) > 1e-9 {
			return false
		}
		// The fast solution must itself be feasible and worth its value.
		var v, w float64
		for gi, ch := range fast.Choice {
			if ch < 0 {
				continue
			}
			v += groups[gi].Items[ch].Value
			w += groups[gi].Items[ch].Weight
		}
		return math.Abs(v-fast.Value) < 1e-9 && w <= budget+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNewPolicyValidation(t *testing.T) {
	cat := models.PaperCatalog()
	if _, err := NewPolicy(PolicyConfig{}); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := NewPolicy(PolicyConfig{Catalog: cat}); err == nil {
		t.Error("empty assignment accepted")
	}
	p, err := NewPolicy(PolicyConfig{Catalog: cat, Assignment: models.Assignment{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "milp" {
		t.Errorf("name = %q", p.Name())
	}
	// Default budget: 60% of all-highest footprint.
	want := 0.6 * (cat.Families[0].Highest().MemoryMB + cat.Families[1].Highest().MemoryMB)
	if math.Abs(p.cfg.MemoryBudgetMB-want) > 1e-9 {
		t.Errorf("budget = %v, want %v", p.cfg.MemoryBudgetMB, want)
	}
}

func TestPolicyRespectsBudget(t *testing.T) {
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 5, Horizon: trace.MinutesPerDay})
	if err != nil {
		t.Fatal(err)
	}
	cat := models.PaperCatalog()
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	budget := 4000.0
	p, err := NewPolicy(PolicyConfig{Catalog: cat, Assignment: asg, MemoryBudgetMB: budget})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()}
	res, err := cluster.Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for tt, kam := range res.PerMinuteKaMMB {
		if kam > budget+1e-9 {
			t.Fatalf("minute %d: keep-alive memory %v exceeds strict budget %v", tt, kam, budget)
		}
	}
	if res.Invocations == 0 {
		t.Fatal("no invocations simulated")
	}
}

// Figure 9's shape: MILP is optimal for its objective but slower per
// decision and lower-accuracy than PULSE (its utility objective favors
// low-quality variants).
func TestPolicyVsPulseShape(t *testing.T) {
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 6, Horizon: trace.MinutesPerDay})
	if err != nil {
		t.Fatal(err)
	}
	cat := models.PaperCatalog()
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	cfg := cluster.Config{Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel(), MeasureOverhead: true}

	mp, err := NewPolicy(PolicyConfig{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	rMILP, err := cluster.Run(cfg, mp)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	rPulse, err := cluster.Run(cfg, pp)
	if err != nil {
		t.Fatal(err)
	}
	if rMILP.MeanAccuracyPct() >= rPulse.MeanAccuracyPct() {
		t.Errorf("MILP accuracy %v not below PULSE %v (Figure 9b shape)",
			rMILP.MeanAccuracyPct(), rPulse.MeanAccuracyPct())
	}
	// Figure 9a shape: generic MILP machinery costs more per decision.
	if rMILP.PolicyOverheadSec <= rPulse.PolicyOverheadSec {
		t.Errorf("MILP overhead %v not above PULSE %v",
			rMILP.PolicyOverheadSec, rPulse.PolicyOverheadSec)
	}
}
