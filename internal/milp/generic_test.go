package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveGenericKnownOptimum(t *testing.T) {
	groups := []Group{
		{Items: []Item{{Value: 4, Weight: 3}, {Value: 6, Weight: 6}, {Value: 8, Weight: 9}}},
		{Items: []Item{{Value: 3, Weight: 4}, {Value: 5, Weight: 8}}},
	}
	sol, err := SolveGeneric(groups, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Value-9) > 1e-6 {
		t.Errorf("value = %v, want 9 (choice %v)", sol.Value, sol.Choice)
	}
	if sol.Choice[0] != 1 || sol.Choice[1] != 0 {
		t.Errorf("choice = %v, want [1 0]", sol.Choice)
	}
	if sol.Nodes == 0 {
		t.Error("no nodes explored")
	}
	if sol.LPIterations == 0 {
		t.Error("no simplex iterations — LP relaxation not engaged")
	}
}

func TestSolveGenericValidation(t *testing.T) {
	if _, err := SolveGeneric(nil, -1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := SolveGeneric([]Group{{Items: []Item{{Value: 1, Weight: -1}}}}, 5); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := SolveGeneric([]Group{{Items: []Item{{Value: math.NaN(), Weight: 1}}}}, 5); err == nil {
		t.Error("NaN accepted")
	}
	sol, err := SolveGeneric(nil, 5)
	if err != nil || sol.Value != 0 {
		t.Errorf("empty problem: %+v, %v", sol, err)
	}
}

func TestSolveGenericInfeasibleItems(t *testing.T) {
	groups := []Group{{Items: []Item{{Value: 10, Weight: 100}}}}
	sol, err := SolveGeneric(groups, 50)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Choice[0] != -1 || sol.Value != 0 {
		t.Errorf("infeasible item chosen: %+v", sol)
	}
}

// Property: the generic simplex-based solver and the specialized
// combinatorial solver agree on the optimum for random instances, and the
// generic solution is feasible.
func TestSolveGenericMatchesCombinatorial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nGroups := rng.Intn(4) + 1
		groups := make([]Group, nGroups)
		for g := range groups {
			nItems := rng.Intn(3) + 1
			items := make([]Item, nItems)
			for i := range items {
				items[i] = Item{
					Value:  math.Round(rng.Float64()*100) / 10,
					Weight: math.Round(rng.Float64()*100) / 10,
				}
			}
			groups[g] = Group{Items: items}
		}
		budget := rng.Float64() * 15
		fast := solve(groups, budget)
		generic, err := SolveGeneric(groups, budget)
		if err != nil {
			return false
		}
		if math.Abs(fast.Value-generic.Value) > 1e-5 {
			return false
		}
		var v, w float64
		for g, ch := range generic.Choice {
			if ch < 0 {
				continue
			}
			v += groups[g].Items[ch].Value
			w += groups[g].Items[ch].Weight
		}
		return math.Abs(v-generic.Value) < 1e-5 && w <= budget+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The generic solver must cost meaningfully more than the combinatorial
// one — this is the Figure 9 overhead mechanism.
func TestSolveGenericIsSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	groups := make([]Group, 12)
	for g := range groups {
		items := make([]Item, 3)
		for i := range items {
			items[i] = Item{Value: rng.Float64() * 2, Weight: 300 + rng.Float64()*3000}
		}
		groups[g] = Group{Items: items}
	}
	sol, err := SolveGeneric(groups, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if sol.LPIterations < 10 {
		t.Errorf("generic solver used only %d simplex iterations on a 36-variable instance", sol.LPIterations)
	}
	fast := solve(groups, 10000)
	if math.Abs(fast.Value-sol.Value) > 1e-5 {
		t.Errorf("solvers disagree: %v vs %v", fast.Value, sol.Value)
	}
}

func BenchmarkSolveGeneric12Functions(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	groups := make([]Group, 12)
	for g := range groups {
		items := make([]Item, 3)
		for i := range items {
			items[i] = Item{Value: rng.Float64() * 2, Weight: 300 + rng.Float64()*3000}
		}
		groups[g] = Group{Items: items}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGeneric(groups, 10000); err != nil {
			b.Fatal(err)
		}
	}
}
