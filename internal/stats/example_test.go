package stats_test

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/stats"
)

// ExampleIntHistogram summarizes inter-arrival gaps the way the Wild
// predictor and the trace analysis read them.
func ExampleIntHistogram() {
	h := stats.NewIntHistogram()
	for _, gap := range []int{2, 2, 2, 5} {
		if err := h.Add(gap); err != nil {
			panic(err)
		}
	}
	p75, _ := h.Percentile(75)
	fmt.Println(h)
	fmt.Printf("mean %.2f, p75 %d\n", h.Mean(), p75)
	// Output:
	// IntHistogram{2:3, 5:1}
	// mean 2.75, p75 2
}

// ExampleRollingWindow shows the sliding average behind Algorithm 1's
// local-window prior.
func ExampleRollingWindow() {
	w := stats.NewRollingWindow(3)
	for _, kam := range []float64{100, 200, 300, 400} {
		w.Push(kam)
	}
	fmt.Println("window:", w.Values())
	fmt.Println("mean:", w.Mean())
	// Output:
	// window: [200 300 400]
	// mean: 300
}
