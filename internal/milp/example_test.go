package milp_test

import (
	"fmt"
	"log"

	"github.com/pulse-serverless/pulse/internal/milp"
)

// ExampleSolveGeneric solves the same program through the generic
// simplex-based branch and bound, which returns identical optima at the
// cost profile of real MILP machinery.
func ExampleSolveGeneric() {
	groups := []milp.Group{
		{Items: []milp.Item{{Value: 4, Weight: 3}, {Value: 6, Weight: 6}, {Value: 8, Weight: 9}}},
		{Items: []milp.Item{{Value: 3, Weight: 4}, {Value: 5, Weight: 8}}},
	}
	sol, err := milp.SolveGeneric(groups, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("value %.0f with choice %v\n", sol.Value, sol.Choice)
	fmt.Println("used LP relaxations:", sol.LPIterations > 0)
	// Output:
	// value 9 with choice [1 0]
	// used LP relaxations: true
}
