package core

import (
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/trace"
)

func pulseTestSetup(t *testing.T, seed int64, horizon int) (*trace.Trace, *models.Catalog, models.Assignment) {
	t.Helper()
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: seed, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	cat := models.PaperCatalog()
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	return tr, cat, asg
}

func TestNewValidation(t *testing.T) {
	cat := models.PaperCatalog()
	if _, err := New(Config{Catalog: nil, Assignment: models.Assignment{0}}); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := New(Config{Catalog: cat, Assignment: models.Assignment{}}); err == nil {
		t.Error("empty assignment accepted")
	}
	if _, err := New(Config{Catalog: cat, Assignment: models.Assignment{99}}); err == nil {
		t.Error("bad assignment accepted")
	}
	p, err := New(Config{Catalog: cat, Assignment: models.Assignment{0}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.Window != 10 || cfg.LocalWindow != 60 || cfg.KaMThreshold != 0.10 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Technique.Name() != "T1" {
		t.Errorf("default technique = %s", cfg.Technique.Name())
	}
	if p.Name() != "pulse-T1" {
		t.Errorf("name = %q", p.Name())
	}
	p2, err := New(Config{Catalog: cat, Assignment: models.Assignment{0}, DisableGlobalOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Name() != "pulse-T1-noglobal" {
		t.Errorf("noglobal name = %q", p2.Name())
	}
}

func TestPulseKeepsLowVariantAliveAfterInvocation(t *testing.T) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0} // GPT, 3 variants
	p, err := New(Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	// Before anything: nothing alive.
	if got := p.KeepAlive(0); got[0] != cluster.NoVariant {
		t.Errorf("pre-invocation alive = %d", got[0])
	}
	p.RecordInvocations(0, []int{1})
	// First invocation ever: all probabilities zero, but the low-quality
	// guarantee keeps variant 0 alive for the whole window.
	for tt := 1; tt <= 10; tt++ {
		if got := p.KeepAlive(tt); got[0] != 0 {
			t.Errorf("minute %d: alive = %d, want lowest variant", tt, got[0])
		}
		p.RecordInvocations(tt, []int{0})
	}
	// Window expired at minute 11.
	if got := p.KeepAlive(11); got[0] != cluster.NoVariant {
		t.Errorf("minute 11: alive = %d, want none", got[0])
	}
}

func TestPulseUpgradesOnStrongPattern(t *testing.T) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0} // GPT: 3 variants, thresholds 1/3 and 2/3
	p, err := New(Config{Catalog: cat, Assignment: asg, DisableGlobalOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly periodic every 2 minutes: P(gap=2) → 1 (blended of two
	// identical histories), so offset 2 should select the highest variant.
	tt := 0
	for i := 0; i < 30; i++ {
		p.KeepAlive(tt)
		p.RecordInvocations(tt, []int{1})
		tt += 2
		p.KeepAlive(tt - 1)
		p.RecordInvocations(tt-1, []int{0})
	}
	alive := p.KeepAlive(tt) // offset 2 after the last invocation at tt-2
	if alive[0] != 2 {
		t.Errorf("offset-2 variant = %d, want highest (2)", alive[0])
	}
	// Offset 1 has probability 0 → lowest variant, not none.
	p.RecordInvocations(tt, []int{1})
	alive = p.KeepAlive(tt + 1)
	if alive[0] != 0 {
		t.Errorf("offset-1 variant = %d, want lowest (0)", alive[0])
	}
}

func TestPulseEndToEndAgainstOpenWhisk(t *testing.T) {
	tr, cat, asg := pulseTestSetup(t, 17, 3*trace.MinutesPerDay)
	cfg := cluster.Config{Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()}

	pulse, err := New(Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	rPulse, err := cluster.Run(cfg, pulse)
	if err != nil {
		t.Fatal(err)
	}
	ow, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	rOW, err := cluster.Run(cfg, ow)
	if err != nil {
		t.Fatal(err)
	}

	// Headline shape: PULSE cuts keep-alive cost substantially (paper:
	// 39.5%) with only a small accuracy drop (paper: 0.6%).
	if rPulse.KeepAliveCostUSD >= rOW.KeepAliveCostUSD {
		t.Errorf("PULSE cost %v not below OpenWhisk %v", rPulse.KeepAliveCostUSD, rOW.KeepAliveCostUSD)
	}
	saving := 1 - rPulse.KeepAliveCostUSD/rOW.KeepAliveCostUSD
	if saving < 0.15 {
		t.Errorf("cost saving only %.1f%%, expected a substantial cut", saving*100)
	}
	accDrop := rOW.MeanAccuracyPct() - rPulse.MeanAccuracyPct()
	if accDrop < 0 {
		t.Errorf("PULSE accuracy above all-high baseline? drop = %v", accDrop)
	}
	if accDrop > 5 {
		t.Errorf("accuracy drop %.2f%% too large (paper: ≈0.6%%)", accDrop)
	}
	// Warm-start parity: PULSE's low-quality floor keeps a container alive
	// whenever OpenWhisk would; only peak-time evictions can cost warm
	// starts, so it must be close.
	if rPulse.WarmStarts < rOW.WarmStarts*95/100 {
		t.Errorf("PULSE warm starts %d far below OpenWhisk %d", rPulse.WarmStarts, rOW.WarmStarts)
	}
	if rPulse.Invocations != rOW.Invocations {
		t.Errorf("invocation counts differ: %d vs %d", rPulse.Invocations, rOW.Invocations)
	}
}

func TestPulseGlobalOptSmoothsPeaks(t *testing.T) {
	tr, cat, asg := pulseTestSetup(t, 23, 3*trace.MinutesPerDay)
	cfg := cluster.Config{Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()}

	run := func(disableGlobal bool) (*cluster.Result, *Pulse) {
		t.Helper()
		p, err := New(Config{Catalog: cat, Assignment: asg, DisableGlobalOpt: disableGlobal})
		if err != nil {
			t.Fatal(err)
		}
		r, err := cluster.Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return r, p
	}
	rFull, pFull := run(false)
	rNoGlobal, pNoGlobal := run(true)

	if pNoGlobal.TotalDowngrades() != 0 || pNoGlobal.PeakMinutes() != 0 {
		t.Error("disabled global optimizer still downgraded")
	}
	if pFull.TotalDowngrades() == 0 {
		t.Error("full PULSE never downgraded on a bursty trace")
	}
	if pFull.PeakMinutes() == 0 {
		t.Error("full PULSE never detected a peak")
	}
	// The global optimizer can only remove keep-alive memory, so its
	// keep-alive cost is at most the individual-only configuration's.
	if rFull.KeepAliveCostUSD > rNoGlobal.KeepAliveCostUSD+1e-9 {
		t.Errorf("global opt increased cost: %v > %v", rFull.KeepAliveCostUSD, rNoGlobal.KeepAliveCostUSD)
	}
	// Per-minute memory is pointwise bounded by the no-global run except
	// where identical.
	for tt := range rFull.PerMinuteKaMMB {
		if rFull.PerMinuteKaMMB[tt] > rNoGlobal.PerMinuteKaMMB[tt]+1e-9 {
			t.Fatalf("minute %d: global opt kept MORE memory (%v > %v)",
				tt, rFull.PerMinuteKaMMB[tt], rNoGlobal.PerMinuteKaMMB[tt])
		}
	}
}

func TestPulseT2AlsoWorks(t *testing.T) {
	tr, cat, asg := pulseTestSetup(t, 31, 2*trace.MinutesPerDay)
	cfg := cluster.Config{Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()}
	p, err := New(Config{Catalog: cat, Assignment: asg, Technique: TechniqueT2{}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "pulse-T2" {
		t.Errorf("name = %q", p.Name())
	}
	r, err := cluster.Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Invocations == 0 || r.WarmStarts == 0 {
		t.Error("T2 run produced no activity")
	}
}

func TestPulseDeterministic(t *testing.T) {
	tr, cat, asg := pulseTestSetup(t, 41, trace.MinutesPerDay)
	cfg := cluster.Config{Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()}
	var prev *cluster.Result
	for i := 0; i < 2; i++ {
		p, err := New(Config{Catalog: cat, Assignment: asg})
		if err != nil {
			t.Fatal(err)
		}
		r, err := cluster.Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if r.KeepAliveCostUSD != prev.KeepAliveCostUSD ||
				r.TotalServiceSec != prev.TotalServiceSec ||
				r.AccuracySumPct != prev.AccuracySumPct {
				t.Error("PULSE runs are not deterministic")
			}
		}
		prev = r
	}
}

func TestPulseAccessors(t *testing.T) {
	cat := models.PaperCatalog()
	p, err := New(Config{Catalog: cat, Assignment: models.Assignment{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.History(0) == nil || p.History(1) == nil {
		t.Error("histories missing")
	}
	if p.History(-1) != nil || p.History(2) != nil {
		t.Error("out-of-range history should be nil")
	}
	if got := p.ColdVariant(0, 0); got != cat.Families[0].NumVariants()-1 {
		t.Errorf("cold variant = %d, want highest", got)
	}
}

func BenchmarkPulseDecisionMinute(b *testing.B) {
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 1, Horizon: trace.MinutesPerDay})
	if err != nil {
		b.Fatal(err)
	}
	cat := models.PaperCatalog()
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	p, err := New(Config{Catalog: cat, Assignment: asg})
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int, len(asg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Time must be monotone for the histories; the trace wraps.
		p.KeepAlive(i)
		for fn := range counts {
			counts[fn] = tr.Functions[fn].Counts[i%tr.Horizon]
		}
		p.RecordInvocations(i, counts)
	}
}
