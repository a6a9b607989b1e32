package models

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func validVariant() Variant {
	return Variant{Name: "v", AccuracyPct: 80, ExecSec: 1, ColdStartSec: 5, MemoryMB: 500}
}

func TestVariantValidate(t *testing.T) {
	if err := validVariant().Validate(); err != nil {
		t.Errorf("valid variant rejected: %v", err)
	}
	mut := []func(*Variant){
		func(v *Variant) { v.Name = "" },
		func(v *Variant) { v.AccuracyPct = 0 },
		func(v *Variant) { v.AccuracyPct = 101 },
		func(v *Variant) { v.ExecSec = 0 },
		func(v *Variant) { v.ColdStartSec = -1 },
		func(v *Variant) { v.MemoryMB = 0 },
	}
	for i, m := range mut {
		v := validVariant()
		m(&v)
		if err := v.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestVariantDerived(t *testing.T) {
	v := validVariant()
	if got := v.ColdServiceSec(); got != 6 {
		t.Errorf("ColdServiceSec = %v, want 6", got)
	}
	if got := v.Accuracy(); got != 0.8 {
		t.Errorf("Accuracy = %v, want 0.8", got)
	}
}

func twoVariantFamily() Family {
	return Family{Name: "F", Variants: []Variant{
		{Name: "lo", AccuracyPct: 70, ExecSec: 1, ColdStartSec: 3, MemoryMB: 300},
		{Name: "hi", AccuracyPct: 90, ExecSec: 2, ColdStartSec: 8, MemoryMB: 900},
	}}
}

func TestFamilyAccessors(t *testing.T) {
	f := twoVariantFamily()
	if f.NumVariants() != 2 {
		t.Errorf("NumVariants = %d", f.NumVariants())
	}
	if f.Lowest().Name != "lo" || f.Highest().Name != "hi" {
		t.Errorf("Lowest/Highest wrong: %v / %v", f.Lowest().Name, f.Highest().Name)
	}
}

func TestAccuracyImprovement(t *testing.T) {
	f := twoVariantFamily()
	// Lowest variant: its own accuracy in decimal form.
	ai, err := f.AccuracyImprovement(0)
	if err != nil || math.Abs(ai-0.70) > 1e-12 {
		t.Errorf("Ai(0) = %v, %v; want 0.70", ai, err)
	}
	// Higher variant: gain over the next lower one.
	ai, err = f.AccuracyImprovement(1)
	if err != nil || math.Abs(ai-0.20) > 1e-12 {
		t.Errorf("Ai(1) = %v, %v; want 0.20", ai, err)
	}
	if _, err := f.AccuracyImprovement(-1); err == nil {
		t.Error("Ai(-1) should fail")
	}
	if _, err := f.AccuracyImprovement(2); err == nil {
		t.Error("Ai(out of range) should fail")
	}
}

func TestFamilyValidate(t *testing.T) {
	if err := twoVariantFamily().Validate(); err != nil {
		t.Errorf("valid family rejected: %v", err)
	}
	bad := []Family{
		{Name: "", Variants: twoVariantFamily().Variants},
		{Name: "F"},
		{Name: "F", Variants: []Variant{
			{Name: "a", AccuracyPct: 90, ExecSec: 1, MemoryMB: 100},
			{Name: "b", AccuracyPct: 80, ExecSec: 1, MemoryMB: 200}, // accuracy decreasing
		}},
		{Name: "F", Variants: []Variant{
			{Name: "a", AccuracyPct: 80, ExecSec: 1, MemoryMB: 500},
			{Name: "b", AccuracyPct: 90, ExecSec: 1, MemoryMB: 200}, // memory decreasing
		}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad family %d accepted", i)
		}
	}
}

func TestPaperCatalogValid(t *testing.T) {
	c := PaperCatalog()
	if err := c.Validate(); err != nil {
		t.Fatalf("paper catalog invalid: %v", err)
	}
	if len(c.Families) != 5 {
		t.Errorf("families = %d, want 5 (Table IV)", len(c.Families))
	}
	// Spot-check Table I numbers.
	gpt := family(c, "GPT")
	if gpt == nil {
		t.Fatal("no GPT family")
	}
	if gpt.NumVariants() != 3 {
		t.Errorf("GPT variants = %d, want 3", gpt.NumVariants())
	}
	if gpt.Lowest().AccuracyPct != 87.65 || gpt.Highest().AccuracyPct != 93.45 {
		t.Errorf("GPT accuracies: %v .. %v", gpt.Lowest().AccuracyPct, gpt.Highest().AccuracyPct)
	}
	if gpt.Lowest().ExecSec != 12.90 {
		t.Errorf("GPT-Small exec = %v, want 12.90", gpt.Lowest().ExecSec)
	}
	// GPT-Large anchors the memory calibration at 3500 MB.
	if math.Abs(gpt.Highest().MemoryMB-3500) > 1 {
		t.Errorf("GPT-Large memory = %v, want ≈3500", gpt.Highest().MemoryMB)
	}
	// Paper: models range between 300 and 3500 MB.
	for _, f := range c.Families {
		for _, v := range f.Variants {
			if v.MemoryMB < 250 || v.MemoryMB > 3600 {
				t.Errorf("%s memory %v MB outside plausible range", v.Name, v.MemoryMB)
			}
		}
	}
	yolo := family(c, "YOLO")
	if yolo.Lowest().AccuracyPct != 56.80 {
		t.Errorf("YOLO lowest accuracy = %v, want 56.80 (quoted in paper §III-B)", yolo.Lowest().AccuracyPct)
	}
}

func TestCatalogValidateErrors(t *testing.T) {
	if err := (&Catalog{}).Validate(); err == nil {
		t.Error("empty catalog accepted")
	}
	dup := &Catalog{Families: []Family{twoVariantFamily(), twoVariantFamily()}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate family names accepted")
	}
}

func TestTwoVariantCatalog(t *testing.T) {
	c := TwoVariantCatalog(PaperCatalog())
	if err := c.Validate(); err != nil {
		t.Fatalf("two-variant catalog invalid: %v", err)
	}
	for _, f := range c.Families {
		if f.NumVariants() > 2 {
			t.Errorf("family %s has %d variants after collapse", f.Name, f.NumVariants())
		}
	}
	// BERT already has two variants and must be preserved.
	if family(c, "BERT").NumVariants() != 2 {
		t.Error("BERT lost a variant")
	}
	// Collapse must not alias the source catalog.
	src := PaperCatalog()
	col := TwoVariantCatalog(src)
	col.Families[0].Variants[0].AccuracyPct = 1
	if src.Families[0].Variants[0].AccuracyPct == 1 {
		t.Error("TwoVariantCatalog aliases source variants")
	}
}

func TestAssignment(t *testing.T) {
	c := PaperCatalog()
	rng := rand.New(rand.NewSource(3))
	a := RandomAssignment(rng, c, 12)
	if err := a.Validate(c, 12); err != nil {
		t.Errorf("random assignment invalid: %v", err)
	}
	if err := a.Validate(c, 11); err == nil {
		t.Error("wrong function count accepted")
	}
	bad := Assignment{0, 99}
	if err := bad.Validate(c, 2); err == nil {
		t.Error("out-of-range family accepted")
	}
}

// Property: random assignments over many draws cover every family.
func TestRandomAssignmentCoverage(t *testing.T) {
	c := PaperCatalog()
	rng := rand.New(rand.NewSource(4))
	seen := make(map[int]bool)
	for i := 0; i < 50; i++ {
		for _, fam := range RandomAssignment(rng, c, 12) {
			seen[fam] = true
		}
	}
	if len(seen) != len(c.Families) {
		t.Errorf("coverage = %d families, want %d", len(seen), len(c.Families))
	}
}

// Property: Ai is always within [0,1] for every variant of every family.
func TestAccuracyImprovementRange(t *testing.T) {
	c := PaperCatalog()
	for _, f := range c.Families {
		for i := range f.Variants {
			ai, err := f.AccuracyImprovement(i)
			if err != nil {
				t.Fatal(err)
			}
			if ai < 0 || ai > 1 {
				t.Errorf("%s variant %d: Ai = %v outside [0,1]", f.Name, i, ai)
			}
		}
	}
}

// Property (testing/quick): for any synthetic increasing-accuracy family,
// the sum of Ai over variants 1..n-1 equals highest−lowest accuracy.
func TestAccuracyImprovementTelescopes(t *testing.T) {
	f := func(deltas []uint8) bool {
		if len(deltas) == 0 || len(deltas) > 8 {
			return true
		}
		fam := Family{Name: "Q"}
		acc := 10.0
		memory := 100.0
		fam.Variants = append(fam.Variants, Variant{Name: "v0", AccuracyPct: acc, ExecSec: 1, MemoryMB: memory})
		for i, d := range deltas {
			acc += float64(d%50)/10 + 0.1
			memory += 10
			if acc > 100 {
				return true
			}
			fam.Variants = append(fam.Variants, Variant{
				Name: "v" + string(rune('1'+i)), AccuracyPct: acc, ExecSec: 1, MemoryMB: memory,
			})
		}
		if err := fam.Validate(); err != nil {
			return false
		}
		var sum float64
		for i := 1; i < fam.NumVariants(); i++ {
			ai, err := fam.AccuracyImprovement(i)
			if err != nil {
				return false
			}
			sum += ai
		}
		want := (fam.Highest().AccuracyPct - fam.Lowest().AccuracyPct) / 100
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
