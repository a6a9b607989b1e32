package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
)

func TestNewPeakDetectorValidation(t *testing.T) {
	if _, err := NewPeakDetector(0, 60, PriorAlgorithm1); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewPeakDetector(0.1, 0, PriorAlgorithm1); err == nil {
		t.Error("zero local window accepted")
	}
}

func TestPeakDetectorStartup(t *testing.T) {
	d, err := NewPeakDetector(0.10, 10, PriorAlgorithm1)
	if err != nil {
		t.Fatal(err)
	}
	// Before any history nothing is a peak.
	if d.IsPeak(1e9) {
		t.Error("peak detected with no history")
	}
	if !math.IsInf(d.PriorKaM(), 1) {
		t.Errorf("startup prior = %v, want +Inf", d.PriorKaM())
	}
	if !math.IsInf(d.FlattenTarget(), 1) {
		t.Error("startup flatten target should be +Inf")
	}
}

func TestPeakDetectorContinuousActivity(t *testing.T) {
	d, _ := NewPeakDetector(0.10, 10, PriorAlgorithm1)
	if err := d.Record(1000); err != nil {
		t.Fatal(err)
	}
	// Prior is the previous minute (1000); threshold 10% → peak above 1100.
	if got := d.PriorKaM(); got != 1000 {
		t.Errorf("prior = %v, want 1000", got)
	}
	if d.IsPeak(1100) {
		t.Error("exactly at threshold should not be a peak (strict >)")
	}
	if !d.IsPeak(1101) {
		t.Error("1101 > 1100 should be a peak")
	}
	if got := d.FlattenTarget(); math.Abs(got-1100) > 1e-9 {
		t.Errorf("flatten target = %v, want 1100", got)
	}
}

func TestPeakDetectorInactivityFallbacks(t *testing.T) {
	d, _ := NewPeakDetector(0.10, 5, PriorAlgorithm1)
	// Not yet operational 2× the local window: after inactivity the prior
	// falls back to the last non-zero keep-alive memory.
	_ = d.Record(800)
	_ = d.Record(0)
	if got := d.PriorKaM(); got != 800 {
		t.Errorf("prior after short inactivity = %v, want last non-zero 800", got)
	}
	// Never-active system: prior is +Inf, nothing peaks.
	d2, _ := NewPeakDetector(0.10, 5, PriorAlgorithm1)
	for i := 0; i < 20; i++ {
		_ = d2.Record(0)
	}
	if !math.IsInf(d2.PriorKaM(), 1) {
		t.Errorf("never-active prior = %v, want +Inf", d2.PriorKaM())
	}
	if d2.IsPeak(5000) {
		t.Error("first activity ever must not be a peak")
	}
}

func TestPeakDetectorLocalWindowAverage(t *testing.T) {
	d, _ := NewPeakDetector(0.10, 3, PriorAlgorithm1)
	// Run ≥ 2× local window with activity, then a zero minute.
	for _, kam := range []float64{900, 900, 900, 300, 600, 900} {
		_ = d.Record(kam)
	}
	_ = d.Record(0)
	// Elapsed (7) ≥ 2×3 and the rolling 3-minute average covers the last
	// 3 samples (900, 0 … wait: window holds 600, 900, 0) → mean 500 > 0,
	// so the prior is that average.
	want := (600.0 + 900 + 0) / 3
	if got := d.PriorKaM(); math.Abs(got-want) > 1e-9 {
		t.Errorf("prior after long activity = %v, want window avg %v", got, want)
	}
	if d.Elapsed() != 7 {
		t.Errorf("elapsed = %d", d.Elapsed())
	}
}

func TestPeakDetectorNaiveMode(t *testing.T) {
	d, _ := NewPeakDetector(0.10, 5, PriorNaive)
	_ = d.Record(800)
	_ = d.Record(0)
	// Naive mode compares against the literal previous minute (0), so any
	// activity is a "peak" — the failure mode Algorithm 1 exists to avoid.
	if got := d.PriorKaM(); got != 0 {
		t.Errorf("naive prior = %v, want 0", got)
	}
	if !d.IsPeak(100) {
		t.Error("naive mode should flag activity after inactivity as a peak")
	}
}

func TestPeakDetectorRecordNegative(t *testing.T) {
	d, _ := NewPeakDetector(0.10, 5, PriorAlgorithm1)
	if err := d.Record(-1); err == nil {
		t.Error("negative keep-alive memory accepted")
	}
}

func TestPriorityStructure(t *testing.T) {
	if _, err := NewPriority(0); err == nil {
		t.Error("zero models accepted")
	}
	p, err := NewPriority(3)
	if err != nil {
		t.Fatal(err)
	}
	// All zeros: degenerate normalization (Equation 1) gives all zeros.
	for _, v := range normalize(p) {
		if v != 0 {
			t.Error("fresh priority should normalize to zeros")
		}
	}
	_ = p.Bump(1)
	_ = p.Bump(1)
	_ = p.Bump(2)
	norm := normalize(p)
	if norm[0] != 0 || norm[1] != 1 || math.Abs(norm[2]-0.5) > 1e-12 {
		t.Errorf("normalized = %v, want [0 1 0.5]", norm)
	}
	if p.Count(1) != 2 {
		t.Errorf("count = %v", p.Count(1))
	}
	if p.Count(-1) != 0 || p.Count(9) != 0 {
		t.Error("out-of-range counts should read 0")
	}
	if err := p.Bump(7); err == nil {
		t.Error("out-of-range bump accepted")
	}
}

// normalize is the O(N) oracle for Equation 1 over every model's count:
// x' = (x - min) / (max - min), and all zeros when max == min.
func normalize(p *Priority) []float64 {
	lo, hi := p.counts[0], p.counts[0]
	for _, c := range p.counts {
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	out := make([]float64, len(p.counts))
	if hi == lo {
		return out
	}
	for m, c := range p.counts {
		out[m] = (c - lo) / (hi - lo)
	}
	return out
}

// TestPriorityNormAtMatchesEquation1 holds the incremental normAt to the
// O(N) oracle after every bump, registration and retire of a random
// sequence, and checks Equation 1's range and order laws on the way.
func TestPriorityNormAtMatchesEquation1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, err := NewPriority(4)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(10); {
		case r < 7:
			_ = p.Bump(rng.Intn(len(p.counts)))
		case r < 8:
			p.grow()
		default:
			p.retire(rng.Intn(len(p.counts)))
		}
		want := normalize(p)
		for m := range p.counts {
			got := p.normAt(m)
			if got != want[m] {
				t.Fatalf("step %d: normAt(%d) = %v, oracle %v (counts %v)", step, m, got, want[m], p.counts)
			}
			if got < 0 || got > 1 {
				t.Fatalf("step %d: normAt(%d) = %v outside [0, 1]", step, m, got)
			}
			for o := range p.counts {
				if p.counts[m] < p.counts[o] && got > p.normAt(o) {
					t.Fatalf("step %d: normAt does not preserve the counts' order", step)
				}
			}
		}
	}
}

func optCatalog() *models.Catalog {
	return &models.Catalog{Families: []models.Family{
		{
			Name: "big",
			Variants: []models.Variant{
				{Name: "b-lo", AccuracyPct: 70, ExecSec: 1, MemoryMB: 400},
				{Name: "b-hi", AccuracyPct: 90, ExecSec: 2, MemoryMB: 2000},
			},
		},
		{
			Name: "small",
			Variants: []models.Variant{
				{Name: "s-lo", AccuracyPct: 60, ExecSec: 1, MemoryMB: 200},
				{Name: "s-hi", AccuracyPct: 85, ExecSec: 2, MemoryMB: 800},
			},
		},
	}}
}

func TestGlobalOptimizerValidation(t *testing.T) {
	cat := optCatalog()
	if _, err := NewGlobalOptimizer(nil, models.Assignment{0}, StepByOne, false); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := NewGlobalOptimizer(cat, models.Assignment{}, StepByOne, false); err == nil {
		t.Error("empty assignment accepted")
	}
	if _, err := NewGlobalOptimizer(cat, models.Assignment{5}, StepByOne, false); err == nil {
		t.Error("bad assignment accepted")
	}
}

func TestKeptAliveMemory(t *testing.T) {
	g, err := NewGlobalOptimizer(optCatalog(), models.Assignment{0, 1}, StepByOne, false)
	if err != nil {
		t.Fatal(err)
	}
	kam, err := g.KeptAliveMemoryMB([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if kam != 2200 { // 2000 + 200
		t.Errorf("KaM = %v, want 2200", kam)
	}
	kam, err = g.KeptAliveMemoryMB([]int{-1, -1})
	if err != nil || kam != 0 {
		t.Errorf("empty KaM = %v, %v", kam, err)
	}
	if _, err := g.KeptAliveMemoryMB([]int{0}); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := g.KeptAliveMemoryMB([]int{5, 0}); err == nil {
		t.Error("bad variant accepted")
	}
}

func TestFlattenDowngradesLowestUtility(t *testing.T) {
	g, err := NewGlobalOptimizer(optCatalog(), models.Assignment{0, 1}, StepByOne, false)
	if err != nil {
		t.Fatal(err)
	}
	// Both at highest. fn0: Ai=0.20, Ip=0.9 → Uv=1.1. fn1: Ai=0.25,
	// Ip=0.1 → Uv=0.35. fn1 must be downgraded first.
	decisions := []int{1, 1}
	ip := []float64{0.9, 0.1}
	downs, err := g.Flatten(decisions, ip, 2500) // current 2800, free ≥300
	if err != nil {
		t.Fatal(err)
	}
	if len(downs) != 1 {
		t.Fatalf("downgrades = %v", downs)
	}
	if downs[0].Function != 1 || downs[0].FromVariant != 1 || downs[0].ToVariant != 0 {
		t.Errorf("downgrade = %+v, want fn1 hi→lo", downs[0])
	}
	if decisions[0] != 1 || decisions[1] != 0 {
		t.Errorf("decisions = %v", decisions)
	}
	if g.Priority().Count(1) != 1 {
		t.Error("priority not bumped")
	}
}

func TestFlattenEvictsFromLowest(t *testing.T) {
	g, err := NewGlobalOptimizer(optCatalog(), models.Assignment{0, 1}, StepByOneEvict, false)
	if err != nil {
		t.Fatal(err)
	}
	// Everything at lowest (600 MB total); target forces eviction.
	decisions := []int{0, 0}
	downs, err := g.Flatten(decisions, []float64{0.5, 0.5}, 350)
	if err != nil {
		t.Fatal(err)
	}
	// fn1 (s-lo, Ai=0.60) has lower Uv than fn0 (b-lo, Ai=0.70): evicted
	// first; remaining 400 > 350, so fn0 goes too.
	if len(downs) != 2 {
		t.Fatalf("downgrades = %v", downs)
	}
	if downs[0].Function != 1 || downs[0].ToVariant != -1 {
		t.Errorf("first eviction = %+v", downs[0])
	}
	if decisions[0] != -1 || decisions[1] != -1 {
		t.Errorf("decisions = %v, want all evicted", decisions)
	}
}

func TestFlattenTerminatesWhenNothingLeft(t *testing.T) {
	g, _ := NewGlobalOptimizer(optCatalog(), models.Assignment{0, 1}, StepByOne, false)
	decisions := []int{-1, -1}
	downs, err := g.Flatten(decisions, []float64{0, 0}, -1) // impossible target
	if err != nil {
		t.Fatal(err)
	}
	if len(downs) != 0 {
		t.Errorf("downgrades on empty set = %v", downs)
	}
}

func TestFlattenStepByOneFloorsAtLowest(t *testing.T) {
	g, _ := NewGlobalOptimizer(optCatalog(), models.Assignment{0, 1}, StepByOne, false)
	decisions := []int{1, 1} // 2800 MB
	// Target below even the all-lowest footprint (600 MB): the default
	// step downgrades everything to lowest and stops without evicting —
	// the warm-start guarantee survives unflattenable peaks.
	downs, err := g.Flatten(decisions, []float64{0.5, 0.5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(downs) != 2 {
		t.Fatalf("downgrades = %v, want 2 (one per model)", downs)
	}
	if decisions[0] != 0 || decisions[1] != 0 {
		t.Errorf("decisions = %v, want all at lowest, never evicted", decisions)
	}
}

func TestFlattenNoopBelowTarget(t *testing.T) {
	g, _ := NewGlobalOptimizer(optCatalog(), models.Assignment{0, 1}, StepByOne, false)
	decisions := []int{1, 1}
	downs, err := g.Flatten(decisions, []float64{0.5, 0.5}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(downs) != 0 || decisions[0] != 1 || decisions[1] != 1 {
		t.Error("flatten below target should be a no-op")
	}
}

func TestFlattenErrors(t *testing.T) {
	g, _ := NewGlobalOptimizer(optCatalog(), models.Assignment{0, 1}, StepByOne, false)
	if _, err := g.Flatten([]int{0}, []float64{0, 0}, 100); err == nil {
		t.Error("wrong decision length accepted")
	}
	if _, err := g.Flatten([]int{0, 0}, []float64{0}, 100); err == nil {
		t.Error("wrong probability length accepted")
	}
}

// Unbiasedness: with identical functions, repeated peaks spread downgrades
// across models instead of hammering one — the priority term at work.
func TestFlattenUnbiasedAcrossPeaks(t *testing.T) {
	cat := &models.Catalog{Families: []models.Family{{
		Name: "same",
		Variants: []models.Variant{
			{Name: "lo", AccuracyPct: 70, ExecSec: 1, MemoryMB: 400},
			{Name: "hi", AccuracyPct: 90, ExecSec: 2, MemoryMB: 1000},
		},
	}}}
	asg := models.Assignment{0, 0, 0}
	g, err := NewGlobalOptimizer(cat, asg, StepByOne, false)
	if err != nil {
		t.Fatal(err)
	}
	// Ten identical peaks, each requiring exactly one downgrade.
	for round := 0; round < 9; round++ {
		decisions := []int{1, 1, 1} // 3000 MB
		if _, err := g.Flatten(decisions, []float64{0.5, 0.5, 0.5}, 2500); err != nil {
			t.Fatal(err)
		}
	}
	// Downgrades must be spread evenly (3 each) across the three models.
	for fn := 0; fn < 3; fn++ {
		if got := g.Priority().Count(fn); got != 3 {
			t.Errorf("model %d downgraded %v times, want 3 (unbiased)", fn, got)
		}
	}
	// Ablation: with the priority term disabled, the tie-break hammers the
	// same model every time.
	gNo, err := NewGlobalOptimizer(cat, asg, StepByOne, true)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 9; round++ {
		decisions := []int{1, 1, 1}
		if _, err := gNo.Flatten(decisions, []float64{0.5, 0.5, 0.5}, 2500); err != nil {
			t.Fatal(err)
		}
	}
	if got := gNo.Priority().Count(0); got != 9 {
		t.Errorf("biased optimizer downgraded model 0 %v times, want all 9", got)
	}
}

func TestFlattenRandomSelection(t *testing.T) {
	// The strawman mode: with a random victim and skewed probabilities, the
	// high-probability model can be the one downgraded — exactly the bias
	// failure Algorithm 2's utility value exists to avoid.
	cat := optCatalog()
	asg := models.Assignment{0, 1}
	sawHighProbVictim := false
	for seed := int64(1); seed <= 20; seed++ {
		g, err := NewGlobalOptimizer(cat, asg, StepByOne, false)
		if err != nil {
			t.Fatal(err)
		}
		g.UseRandomSelection(seed)
		decisions := []int{1, 1}
		downs, err := g.Flatten(decisions, []float64{0.99, 0.01}, 2500)
		if err != nil {
			t.Fatal(err)
		}
		if len(downs) == 0 {
			t.Fatal("no downgrade applied")
		}
		if downs[0].Function == 0 { // the P=0.99 model
			sawHighProbVictim = true
		}
	}
	if !sawHighProbVictim {
		t.Error("random selection never hit the high-probability model across 20 seeds — not random")
	}
	// Utility-based selection never picks the high-probability model here.
	g, err := NewGlobalOptimizer(cat, asg, StepByOne, false)
	if err != nil {
		t.Fatal(err)
	}
	decisions := []int{1, 1}
	downs, err := g.Flatten(decisions, []float64{0.99, 0.01}, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if downs[0].Function != 1 {
		t.Errorf("utility selection picked fn %d, want the low-probability fn 1", downs[0].Function)
	}
}

func TestFlattenStepEvict(t *testing.T) {
	g, err := NewGlobalOptimizer(optCatalog(), models.Assignment{0, 1}, StepEvict, false)
	if err != nil {
		t.Fatal(err)
	}
	decisions := []int{1, 1}
	downs, err := g.Flatten(decisions, []float64{0.9, 0.1}, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if len(downs) != 1 || downs[0].ToVariant != -1 {
		t.Errorf("evict-mode downgrade = %v, want direct eviction", downs)
	}
}

func TestUtilityTerms(t *testing.T) {
	u := UtilityTerms{Ai: 0.2, Pr: 0.3, Ip: 0.4}
	if math.Abs(u.Uv()-0.9) > 1e-12 {
		t.Errorf("Uv = %v, want 0.9", u.Uv())
	}
}
