package milp

// The specialized combinatorial MCKP solver and exhaustive enumeration: the
// two oracles SolveGeneric is checked against. solve is a depth-first
// branch and bound with an admissible value bound; it needs no LP
// relaxations, which is what makes it the cost baseline of
// TestSolveGenericIsSlower.

// solve maximizes total value subject to total weight ≤ budget, selecting
// at most one item per group. Weights and the budget must be non-negative
// and nothing NaN (SolveGeneric validates that; the oracles assume it);
// values may be anything (negative-value items are simply never chosen, as
// "none" dominates them).
func solve(groups []Group, budget float64) Solution {
	s := &solver{groups: groups, budget: budget}
	s.prepare()
	s.best.Choice = make([]int, len(groups))
	for i := range s.best.Choice {
		s.best.Choice[i] = -1
	}
	s.current = make([]int, len(groups))
	for i := range s.current {
		s.current[i] = -1
	}
	// The all-none assignment (value 0, weight 0) is always feasible and is
	// the initial incumbent; branches that cannot strictly beat it prune.
	s.branch(0, 0, 0)
	return s.best
}

type solver struct {
	groups  []Group
	budget  float64
	suffix  []float64 // suffix[i] = Σ_{g ≥ i} max(0, max value in g): admissible bound
	order   [][]int   // per group: item indices sorted by descending value
	current []int
	best    Solution
}

func (s *solver) prepare() {
	n := len(s.groups)
	s.suffix = make([]float64, n+1)
	s.order = make([][]int, n)
	for i := n - 1; i >= 0; i-- {
		best := 0.0 // "none" contributes 0
		items := s.groups[i].Items
		order := make([]int, len(items))
		for j := range order {
			order[j] = j
		}
		// Descending by value (stable on index for determinism): trying
		// high-value items first finds strong incumbents early, which the
		// suffix bound then prunes against.
		for a := 1; a < len(order); a++ {
			for b := a; b > 0 && items[order[b]].Value > items[order[b-1]].Value; b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		s.order[i] = order
		for _, it := range items {
			if it.Value > best {
				best = it.Value
			}
		}
		s.suffix[i] = s.suffix[i+1] + best
	}
}

// branch explores group gi with accumulated value/weight.
func (s *solver) branch(gi int, value, weight float64) {
	s.best.Nodes++
	if value+s.suffix[gi] <= s.best.Value {
		return // even the optimistic completion cannot beat the incumbent
	}
	if gi == len(s.groups) {
		// Strictly better than the incumbent (guaranteed by the bound
		// check above, since suffix[n] == 0).
		s.best.Value = value
		s.best.Weight = weight
		copy(s.best.Choice, s.current)
		return
	}
	// Try each item, best value first for tighter early incumbents.
	for _, ii := range s.order[gi] {
		it := s.groups[gi].Items[ii]
		if it.Value <= 0 {
			continue // dominated by "none"
		}
		if weight+it.Weight > s.budget {
			continue
		}
		s.current[gi] = ii
		s.branch(gi+1, value+it.Value, weight+it.Weight)
	}
	// And the "none" branch.
	s.current[gi] = -1
	s.branch(gi+1, value, weight)
}

// bruteForce exhaustively enumerates all assignments; exponential, only for
// validating solve on small instances.
func bruteForce(groups []Group, budget float64) Solution {
	n := len(groups)
	best := Solution{Choice: make([]int, n)}
	for i := range best.Choice {
		best.Choice[i] = -1
	}
	current := make([]int, n)
	var rec func(gi int, value, weight float64)
	rec = func(gi int, value, weight float64) {
		if gi == n {
			if value > best.Value {
				best.Value = value
				best.Weight = weight
				copy(best.Choice, current)
			}
			return
		}
		current[gi] = -1
		rec(gi+1, value, weight)
		for ii, it := range groups[gi].Items {
			if weight+it.Weight <= budget {
				current[gi] = ii
				rec(gi+1, value+it.Value, weight+it.Weight)
			}
		}
		current[gi] = -1
	}
	rec(0, 0, 0)
	return best
}
