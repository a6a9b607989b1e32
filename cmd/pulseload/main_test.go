package main

import (
	"slices"
	"testing"

	"github.com/pulse-serverless/pulse/internal/runtime"
)

func TestIntList(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		want []int
		err  string
	}{
		{name: "empty", in: "", want: nil},
		{name: "list", in: "10000,100000,1000000", want: []int{10000, 100000, 1000000}},
		{name: "blanks-skipped", in: " 10 , ,20,", want: []int{10, 20}},
		{name: "bad-entry", in: "10,1e5", err: `-scale: bad entry "1e5"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := intList("scale", tc.in)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("intList(%q) error = %v, want %q", tc.in, err, tc.err)
				}
				return
			}
			if err != nil || !slices.Equal(got, tc.want) {
				t.Errorf("intList(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
		})
	}
}

// The budgets are the CI scale gate: a breach anywhere in the sweep must
// fail the run and name the cell, a zero budget must not gate, and a cell
// exactly at its budget passes.
func TestCheckBudgets(t *testing.T) {
	results := []runtime.ScaleResult{
		{Functions: 100000, BytesPerFunction: 564, IdleStepMicros: 3.8},
		{Functions: 1000000, BytesPerFunction: 600, IdleStepMicros: 900},
	}
	for _, tc := range []struct {
		name              string
		maxBytes, maxIdle float64
		err               string
	}{
		{name: "disabled", maxBytes: 0, maxIdle: 0},
		{name: "within", maxBytes: 1024, maxIdle: 1},
		{name: "at-budget", maxBytes: 600, maxIdle: 0.9},
		{name: "bytes-breach", maxBytes: 580, err: "scale budget breach at 1000000 functions: 600 bytes/function exceeds budget 580"},
		{name: "idle-breach", maxIdle: 0.5, err: "scale budget breach at 1000000 functions: idle step 900.0µs exceeds budget 0.5ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkBudgets("scale", results, tc.maxBytes, tc.maxIdle)
			if tc.err == "" {
				if err != nil {
					t.Errorf("unexpected breach: %v", err)
				}
				return
			}
			if err == nil || err.Error() != tc.err {
				t.Errorf("error = %v, want %q", err, tc.err)
			}
		})
	}
}
