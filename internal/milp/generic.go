package milp

import (
	"fmt"
	"math"

	"github.com/pulse-serverless/pulse/internal/lp"
)

// SolveGeneric maximizes total value subject to total weight ≤ budget,
// selecting at most one item per group, the way a generic MILP toolchain
// does: a 0/1 integer program whose relaxation is solved by the dense
// simplex in internal/lp at every branch-and-bound node. Weights and the
// budget must be non-negative. It returns the optimum a specialized
// combinatorial solver finds (cross-checked in tests) at the cost profile
// of real MILP machinery — which is precisely the overhead asymmetry the
// paper's Figure 9 measures PULSE against.
//
// Formulation, per node's free variables x_{g,i} ∈ [0,1]:
//
//	maximize   Σ value(g,i) · x_{g,i}
//	subject to Σ_i x_{g,i} ≤ 1                    (one variant per model)
//	           Σ weight(g,i) · x_{g,i} ≤ budget'   (keep-alive memory)
//
// with budget' reduced by branches fixed to 1. Branching follows the most
// fractional variable; bounding uses the LP optimum.
func SolveGeneric(groups []Group, budget float64) (Solution, error) {
	if budget < 0 {
		return Solution{}, fmt.Errorf("milp: negative budget %v", budget)
	}
	type varRef struct{ g, i int }
	var vars []varRef
	for g := range groups {
		for i, it := range groups[g].Items {
			if it.Weight < 0 {
				return Solution{}, fmt.Errorf("milp: group %d item %d has negative weight %v", g, i, it.Weight)
			}
			if math.IsNaN(it.Value) || math.IsNaN(it.Weight) {
				return Solution{}, fmt.Errorf("milp: group %d item %d has NaN", g, i)
			}
			vars = append(vars, varRef{g, i})
		}
	}

	best := Solution{Choice: make([]int, len(groups))}
	for g := range best.Choice {
		best.Choice[g] = -1
	}

	// fixed[v]: -1 free, 0 fixed out, 1 fixed in.
	fixed := make([]int8, len(vars))
	for v := range fixed {
		fixed[v] = -1
	}
	choice := make([]int, len(groups))

	const tol = 1e-6
	var explore func() error
	explore = func() error {
		best.Nodes++

		// Assemble the node's state: fixed-1 selections and feasibility.
		for g := range choice {
			choice[g] = -1
		}
		fixedValue, fixedWeight := 0.0, 0.0
		for v, f := range fixed {
			if f != 1 {
				continue
			}
			ref := vars[v]
			if choice[ref.g] != -1 {
				return nil // two variants of one model fixed in: infeasible
			}
			choice[ref.g] = ref.i
			it := groups[ref.g].Items[ref.i]
			fixedValue += it.Value
			fixedWeight += it.Weight
		}
		if fixedWeight > budget+tol {
			return nil // over budget: prune
		}

		// Free variables of groups without a fixed selection.
		var free []int
		for v, f := range fixed {
			if f == -1 && choice[vars[v].g] == -1 {
				free = append(free, v)
			}
		}

		evaluateLeaf := func(extraValue, extraWeight float64) {
			total := fixedValue + extraValue
			if total > best.Value+tol {
				best.Value = total
				best.Weight = fixedWeight + extraWeight
				copy(best.Choice, choice)
			}
		}
		if len(free) == 0 {
			evaluateLeaf(0, 0)
			return nil
		}

		// LP relaxation over the free variables.
		n := len(free)
		groupRow := map[int][]float64{}
		c := make([]float64, n)
		budgetRow := make([]float64, n)
		for j, v := range free {
			ref := vars[v]
			it := groups[ref.g].Items[ref.i]
			c[j] = it.Value
			budgetRow[j] = it.Weight
			row, ok := groupRow[ref.g]
			if !ok {
				row = make([]float64, n)
				groupRow[ref.g] = row
			}
			row[j] = 1
		}
		a := [][]float64{budgetRow}
		b := []float64{budget - fixedWeight}
		for g := range groups {
			if row, ok := groupRow[g]; ok {
				a = append(a, row)
				b = append(b, 1)
			}
		}
		sol, err := lp.Solve(c, a, b)
		if err != nil {
			return fmt.Errorf("milp: relaxation: %w", err)
		}
		best.LPIterations += sol.Iterations
		if fixedValue+sol.Objective <= best.Value+tol {
			return nil // bound: cannot beat the incumbent
		}

		// Integral solution: take it as a leaf.
		branchVar := -1
		worstFrac := 0.0
		for j, x := range sol.X {
			frac := math.Abs(x - math.Round(x))
			if frac > tol && frac > worstFrac {
				worstFrac = frac
				branchVar = j
			}
		}
		if branchVar == -1 {
			extraValue, extraWeight := 0.0, 0.0
			for j, x := range sol.X {
				if x > 0.5 {
					ref := vars[free[j]]
					choice[ref.g] = ref.i
					it := groups[ref.g].Items[ref.i]
					extraValue += it.Value
					extraWeight += it.Weight
				}
			}
			evaluateLeaf(extraValue, extraWeight)
			// Restore choice entries set from the LP.
			for j, x := range sol.X {
				if x > 0.5 {
					choice[vars[free[j]].g] = -1
				}
			}
			return nil
		}

		// Branch: fix in first (tends to find good incumbents early),
		// then fix out.
		v := free[branchVar]
		for _, branch := range []int8{1, 0} {
			fixed[v] = branch
			if err := explore(); err != nil {
				fixed[v] = -1
				return err
			}
		}
		fixed[v] = -1
		return nil
	}
	if err := explore(); err != nil {
		return Solution{}, err
	}
	return best, nil
}
