// Package models provides the ML model substrate PULSE schedules: model
// families, their quality variants, and the per-variant characteristics
// (execution time, cold-start time, keep-alive memory, keep-alive cost
// rate, accuracy) the keep-alive policies consume.
//
// The paper measures these characteristics on AWS Lambda with ONNX builds
// of BERT, YOLO, GPT-2, ResNet, and DenseNet (Tables I and IV). PULSE never
// runs inference — its decisions only see these tuples — so this package
// carries the paper's published Table I numbers directly and calibrated
// synthetic values for the variants the paper uses but does not tabulate
// (YOLO, ResNet). See DESIGN.md §2 for the substitution argument.
package models

import (
	"fmt"
	"math/rand"
)

// Variant is one quality level of a model family. Variants are ordered by
// quality within a family: index 0 is the lowest-accuracy (cheapest)
// variant, the last index is the highest.
type Variant struct {
	Name         string
	AccuracyPct  float64 // accuracy delivered by an invocation, percent (0–100]
	ExecSec      float64 // warm service time: execution only ("with warmup" in Table I)
	ColdStartSec float64 // container creation + model load time added on a cold start
	MemoryMB     float64 // keep-alive memory of the warm container
}

// ColdServiceSec returns the total service time of a cold invocation:
// cold-start overhead plus execution.
func (v Variant) ColdServiceSec() float64 { return v.ColdStartSec + v.ExecSec }

// Accuracy returns the accuracy in decimal form (0–1], the form Algorithm 2
// uses for the accuracy-improvement term of the lowest variant.
func (v Variant) Accuracy() float64 { return v.AccuracyPct / 100 }

// Validate checks the variant's fields are physically meaningful.
func (v Variant) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("models: variant with empty name")
	}
	if v.AccuracyPct <= 0 || v.AccuracyPct > 100 {
		return fmt.Errorf("models: variant %q accuracy %v%% outside (0,100]", v.Name, v.AccuracyPct)
	}
	if v.ExecSec <= 0 {
		return fmt.Errorf("models: variant %q non-positive exec time %v", v.Name, v.ExecSec)
	}
	if v.ColdStartSec < 0 {
		return fmt.Errorf("models: variant %q negative cold start %v", v.Name, v.ColdStartSec)
	}
	if v.MemoryMB <= 0 {
		return fmt.Errorf("models: variant %q non-positive memory %v", v.Name, v.MemoryMB)
	}
	return nil
}

// Family is a model family with its ordered quality variants.
type Family struct {
	Name     string
	Task     string // e.g. "sentiment analysis"
	Dataset  string // evaluation dataset from Table IV
	Variants []Variant
}

// NumVariants returns the number of quality variants.
func (f Family) NumVariants() int { return len(f.Variants) }

// Lowest returns the lowest-quality variant. It panics on an empty family,
// which Validate rejects.
func (f Family) Lowest() Variant { return f.Variants[0] }

// Highest returns the highest-quality variant.
func (f Family) Highest() Variant { return f.Variants[len(f.Variants)-1] }

// AccuracyImprovement returns Algorithm 2's Ai term for the variant at
// index i: the accuracy gain (decimal) of variant i over variant i−1, or,
// for the lowest variant, its own accuracy in decimal form ("the accuracy
// improvement is equivalent to the accuracy of this lowest quality variant
// in decimal form"). The result is in [0, 1].
func (f Family) AccuracyImprovement(i int) (float64, error) {
	if i < 0 || i >= len(f.Variants) {
		return 0, fmt.Errorf("models: family %q has no variant %d", f.Name, i)
	}
	if i == 0 {
		return f.Variants[0].Accuracy(), nil
	}
	return (f.Variants[i].AccuracyPct - f.Variants[i-1].AccuracyPct) / 100, nil
}

// Validate checks the family invariants: at least one variant, each valid,
// accuracy strictly increasing and memory non-decreasing with quality. The
// memory ordering is what makes a downgrade release keep-alive memory,
// which Algorithm 2's peak-flattening loop relies on.
func (f Family) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("models: family with empty name")
	}
	if len(f.Variants) == 0 {
		return fmt.Errorf("models: family %q has no variants", f.Name)
	}
	for i, v := range f.Variants {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("models: family %q: %w", f.Name, err)
		}
		if i > 0 {
			prev := f.Variants[i-1]
			if v.AccuracyPct <= prev.AccuracyPct {
				return fmt.Errorf("models: family %q: variant %q accuracy %v not above %q's %v",
					f.Name, v.Name, v.AccuracyPct, prev.Name, prev.AccuracyPct)
			}
			if v.MemoryMB < prev.MemoryMB {
				return fmt.Errorf("models: family %q: variant %q memory %v below %q's %v",
					f.Name, v.Name, v.MemoryMB, prev.Name, prev.MemoryMB)
			}
		}
	}
	return nil
}

// Catalog is the set of model families available to the platform — the
// paper's "model repository".
type Catalog struct {
	Families []Family
}

// Validate checks every family and name uniqueness.
func (c *Catalog) Validate() error {
	if len(c.Families) == 0 {
		return fmt.Errorf("models: empty catalog")
	}
	seen := make(map[string]bool, len(c.Families))
	for i := range c.Families {
		f := &c.Families[i]
		if err := f.Validate(); err != nil {
			return err
		}
		if seen[f.Name] {
			return fmt.Errorf("models: duplicate family %q", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// Assignment maps function index → family index within a catalog: which
// model each serverless function serves. The paper's simulation performs
// 1000 runs, "each presenting a unique combination of model-to-function
// assignments".
type Assignment []int

// Validate checks the assignment against the catalog and function count.
func (a Assignment) Validate(c *Catalog, nFunctions int) error {
	if len(a) != nFunctions {
		return fmt.Errorf("models: assignment covers %d functions, want %d", len(a), nFunctions)
	}
	for fn, fam := range a {
		if fam < 0 || fam >= len(c.Families) {
			return fmt.Errorf("models: function %d assigned to invalid family %d", fn, fam)
		}
	}
	return nil
}

// RandomAssignment draws a uniform model-to-function assignment.
func RandomAssignment(rng *rand.Rand, c *Catalog, nFunctions int) Assignment {
	a := make(Assignment, nFunctions)
	for i := range a {
		a[i] = rng.Intn(len(c.Families))
	}
	return a
}
