// Package milp implements the Mixed Integer Linear Programming comparator
// of the paper's overhead study (Figure 9): "the objective is to maximize
// overall utility value subject to a strict memory budget constraint",
// evaluating "all selected models and their variants" simultaneously.
//
// The PULSE instance of that program is exactly a multiple-choice knapsack
// (each model picks at most one variant; memory is the single resource).
// This package solves it exactly the way a generic MILP toolchain does
// (SolveGeneric: branch and bound over simplex relaxations), and provides a
// cluster policy that re-solves the program every minute. Exactness means
// the solver reproduces both sides of the paper's comparison: the
// optimizer's answers and its overhead. The tests hold it to a specialized
// combinatorial solver and to exhaustive enumeration.
package milp

// Item is one selectable option within a group: choosing it yields Value
// and consumes Weight of the budget.
type Item struct {
	Value  float64
	Weight float64
}

// Group is a set of mutually exclusive items (a model's variants). A group
// may also select nothing.
type Group struct {
	Items []Item
}

// Solution is the optimal assignment found by SolveGeneric.
type Solution struct {
	// Choice holds the selected item index per group, -1 for none.
	Choice []int
	Value  float64
	Weight float64
	// Nodes counts branch-and-bound nodes explored (overhead proxy).
	Nodes int
	// LPIterations counts simplex iterations spent in relaxations.
	LPIterations int
}
