package attribution

import (
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

func testCatalog(t *testing.T) *models.Catalog {
	t.Helper()
	cat := &models.Catalog{Families: []models.Family{
		{Name: "alpha", Task: "test", Variants: []models.Variant{
			{Name: "alpha-lo", AccuracyPct: 60, ExecSec: 0.5, ColdStartSec: 2, MemoryMB: 512},
			{Name: "alpha-hi", AccuracyPct: 90, ExecSec: 1.0, ColdStartSec: 4, MemoryMB: 2048},
		}},
		{Name: "beta", Task: "test", Variants: []models.Variant{
			{Name: "beta-lo", AccuracyPct: 70, ExecSec: 0.3, ColdStartSec: 1, MemoryMB: 256},
			{Name: "beta-mid", AccuracyPct: 80, ExecSec: 0.6, ColdStartSec: 2, MemoryMB: 1024},
			{Name: "beta-hi", AccuracyPct: 95, ExecSec: 0.9, ColdStartSec: 3, MemoryMB: 3072},
		}},
	}}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func testTrace(t *testing.T, horizon int) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 7, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func uniform(cat *models.Catalog, n int) models.Assignment {
	asg := make(models.Assignment, n)
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	return asg
}

func newAccountant(t *testing.T, cfg Config) *Accountant {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// newAccountantWalkers builds an accountant whose arena walks each minute
// boundary on up to walkers goroutines: the fork-join pool wakes up to
// GOMAXPROCS−1 helpers, so GOMAXPROCS is set to walkers until the test
// ends.
func newAccountantWalkers(t *testing.T, walkers int, cfg Config) *Accountant {
	t.Helper()
	procs := goruntime.GOMAXPROCS(walkers)
	t.Cleanup(func() { goruntime.GOMAXPROCS(procs) })
	return newAccountant(t, cfg)
}

// allocsPerRun is testing.AllocsPerRun (one warm-up call, then the mean
// over runs calls, rounded down) without its GOMAXPROCS of 1, which would
// leave the fork-join helpers asleep.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// The accountant's fixed-high shadow must reproduce the real fixed policy
// run through the engine: attach the accountant to a fixed-high run and
// its live account and its shadow account must agree exactly — same
// kept-alive minutes (integer equality forces bitwise-equal cost products)
// and same cold starts, per function and in total.
func TestShadowFixedMatchesEnginePolicy(t *testing.T) {
	cat := models.PaperCatalog()
	tr := testTrace(t, 2*trace.MinutesPerDay)
	asg := uniform(cat, len(tr.Functions))
	cost := cluster.DefaultCostModel()

	acct := newAccountant(t, Config{Catalog: cat, Assignment: asg, Cost: cost})
	p, err := policy.NewFixed(cat, asg, acct.Window(), policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{
		Trace: tr, Catalog: cat, Assignment: asg, Cost: cost, Observer: acct,
	}, p)
	if err != nil {
		t.Fatal(err)
	}

	rep := acct.Report()
	for _, fr := range append(rep.Functions, rep.Total) {
		if fr.Actual.KeepAliveMBMinutes != fr.FixedHigh.KeepAliveMBMinutes {
			t.Errorf("fn %d: actual KaM %v != shadow fixed KaM %v",
				fr.Function, fr.Actual.KeepAliveMBMinutes, fr.FixedHigh.KeepAliveMBMinutes)
		}
		if fr.Actual.KeepAliveCostUSD != fr.FixedHigh.KeepAliveCostUSD {
			t.Errorf("fn %d: actual cost %v != shadow fixed cost %v",
				fr.Function, fr.Actual.KeepAliveCostUSD, fr.FixedHigh.KeepAliveCostUSD)
		}
		if fr.Actual.ColdStarts != fr.FixedHigh.ColdStarts {
			t.Errorf("fn %d: actual colds %d != shadow fixed colds %d",
				fr.Function, fr.Actual.ColdStarts, fr.FixedHigh.ColdStarts)
		}
		if fr.VsFixed.KeepAliveCostUSD != 0 || fr.VsFixed.ColdStartsAvoided != 0 {
			t.Errorf("fn %d: self-shadow savings not zero: %+v", fr.Function, fr.VsFixed)
		}
	}
	// The live account also matches the engine's own result (different
	// summation order, so compare within float tolerance).
	if d := relDiff(rep.Total.Actual.KeepAliveCostUSD, res.KeepAliveCostUSD); d > 1e-9 {
		t.Errorf("accountant cost %v vs engine cost %v (rel %v)",
			rep.Total.Actual.KeepAliveCostUSD, res.KeepAliveCostUSD, d)
	}
	if rep.Total.Actual.Invocations != res.Invocations ||
		rep.Total.Actual.ColdStarts != res.ColdStarts ||
		rep.Total.Actual.WarmStarts != res.WarmStarts {
		t.Errorf("accountant inv/cold/warm %d/%d/%d vs engine %d/%d/%d",
			rep.Total.Actual.Invocations, rep.Total.Actual.ColdStarts, rep.Total.Actual.WarmStarts,
			res.Invocations, res.ColdStarts, res.WarmStarts)
	}
	if d := relDiff(rep.Total.Actual.MeanAccuracyPct, res.MeanAccuracyPct()); d > 1e-9 {
		t.Errorf("accountant accuracy %v vs engine %v", rep.Total.Actual.MeanAccuracyPct, res.MeanAccuracyPct())
	}
}

// The oracle shadow must agree with the engine's own hindsight reference,
// cluster.IdealCostSeries: highest variant alive exactly during invoked
// minutes, zero cold starts.
func TestShadowOracleMatchesIdealCostSeries(t *testing.T) {
	cat := models.PaperCatalog()
	tr := testTrace(t, trace.MinutesPerDay)
	asg := uniform(cat, len(tr.Functions))
	cost := cluster.DefaultCostModel()

	acct := newAccountant(t, Config{Catalog: cat, Assignment: asg, Cost: cost})
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(cluster.Config{
		Trace: tr, Catalog: cat, Assignment: asg, Cost: cost, Observer: acct,
	}, p); err != nil {
		t.Fatal(err)
	}

	ideal, err := cluster.IdealCostSeries(tr, cat, asg, cost)
	if err != nil {
		t.Fatal(err)
	}
	var idealTotal float64
	for _, v := range ideal {
		idealTotal += v
	}
	rep := acct.Report()
	if d := relDiff(rep.Total.Oracle.KeepAliveCostUSD, idealTotal); d > 1e-9 {
		t.Errorf("oracle shadow cost %v vs IdealCostSeries %v (rel %v)",
			rep.Total.Oracle.KeepAliveCostUSD, idealTotal, d)
	}
	if rep.Total.Oracle.ColdStarts != 0 {
		t.Errorf("oracle shadow has %d cold starts, want 0", rep.Total.Oracle.ColdStarts)
	}
	if rep.Total.Oracle.WarmStarts != rep.Total.Actual.Invocations {
		t.Errorf("oracle warm starts %d != invocations %d",
			rep.Total.Oracle.WarmStarts, rep.Total.Actual.Invocations)
	}

	// The never shadow holds nothing and pays one cold start per invoked
	// function-minute.
	invokedMinutes := 0
	for fn := range tr.Functions {
		for _, c := range tr.Functions[fn].Counts {
			if c > 0 {
				invokedMinutes++
			}
		}
	}
	if rep.Total.Never.ColdStarts != invokedMinutes {
		t.Errorf("never shadow colds %d, want %d invoked fn-minutes", rep.Total.Never.ColdStarts, invokedMinutes)
	}
	if rep.Total.Never.KeepAliveMBMinutes != 0 || rep.Total.Never.KeepAliveCostUSD != 0 {
		t.Errorf("never shadow holds keep-alive: %+v", rep.Total.Never)
	}
}

// Reports must be independent of how a minute's invocations are split
// into samples: one batched sample of Count=c and c singleton samples are
// the same logical stream (the engine batches, the live runtime does not).
func TestSampleFragmentationInvariance(t *testing.T) {
	cat := testCatalog(t)
	asg := models.Assignment{0, 1}
	batched := newAccountant(t, Config{Catalog: cat, Assignment: asg, Window: 3, SeriesWindow: 64})
	singles := newAccountant(t, Config{Catalog: cat, Assignment: asg, Window: 3, SeriesWindow: 64})

	feed := func(a *Accountant, split bool) {
		for m := 0; m < 10; m++ {
			a.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: 0, Variant: 1, VariantName: "alpha-hi", MemMB: 2048})
			a.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: 1, Variant: cluster.NoVariant})
			a.ObserveMinute(telemetry.MinuteSample{Minute: m})
			if m%3 == 0 {
				// fn 0 warm burst of 4; fn 1 cold single + warm pair.
				if split {
					for i := 0; i < 4; i++ {
						a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 0, Variant: "alpha-hi", Count: 1, AccuracyPct: 90})
					}
					a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 1, Variant: "beta-hi", Cold: true, Count: 1, AccuracyPct: 95})
					for i := 0; i < 2; i++ {
						a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 1, Variant: "beta-hi", Count: 1, AccuracyPct: 95})
					}
				} else {
					a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 0, Variant: "alpha-hi", Count: 4, AccuracyPct: 90})
					a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 1, Variant: "beta-hi", Cold: true, Count: 1, AccuracyPct: 95})
					a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 1, Variant: "beta-hi", Count: 2, AccuracyPct: 95})
				}
			}
		}
	}
	feed(batched, false)
	feed(singles, true)

	if rb, rs := batched.Report(), singles.Report(); !reflect.DeepEqual(rb, rs) {
		t.Errorf("fragmented feed diverged:\nbatched: %+v\nsingles: %+v", rb, rs)
	}
	for m := Metric(0); m < numMetrics; m++ {
		sb := batched.Series(m, 64, false)
		ss := singles.Series(m, 64, false)
		if !reflect.DeepEqual(sb, ss) {
			t.Errorf("series %v diverged: %v vs %v", m, sb, ss)
		}
	}
}

// Skipped minutes (no samples at all for a while) still advance the fixed
// shadow's window: the fixed baseline pays keep-alive for idle minutes
// inside the window and goes cold after it lapses.
func TestFixedWindowAcrossSkippedMinutes(t *testing.T) {
	cat := testCatalog(t)
	asg := models.Assignment{0}
	a := newAccountant(t, Config{Catalog: cat, Assignment: asg, Window: 2, SeriesWindow: 64})

	inv := func(m int, cold bool) {
		a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 0, Variant: "alpha-lo", Cold: cold, Count: 1, AccuracyPct: 60})
	}
	inv(0, true) // first ever: cold everywhere
	// Nothing at minutes 1..4; next sample jumps the clock to minute 5.
	inv(5, true) // window (2) lapsed after minute 2 → fixed shadow cold again
	a.ObserveMinute(telemetry.MinuteSample{Minute: 6})

	rep := a.Report()
	fr := rep.Functions[0]
	// Fixed shadow alive during minutes 1 and 2 (after the minute-0 hit),
	// then again during minute 6 (after the minute-5 hit): 3 minutes.
	if fr.FixedHigh.KeepAliveMBMinutes != 3*2048 {
		t.Errorf("fixed shadow KaM = %v MB-min, want %v", fr.FixedHigh.KeepAliveMBMinutes, 3*2048.0)
	}
	if fr.FixedHigh.ColdStarts != 2 {
		t.Errorf("fixed shadow colds = %d, want 2", fr.FixedHigh.ColdStarts)
	}
	if fr.Never.ColdStarts != 2 || fr.Oracle.ColdStarts != 0 {
		t.Errorf("never/oracle colds = %d/%d, want 2/0", fr.Never.ColdStarts, fr.Oracle.ColdStarts)
	}
	// Oracle holds the highest variant exactly during the 2 invoked minutes.
	if fr.Oracle.KeepAliveMBMinutes != 2*2048 {
		t.Errorf("oracle KaM = %v, want %v", fr.Oracle.KeepAliveMBMinutes, 2*2048.0)
	}
}

// A sample carrying an unknown variant name (foreign feed) is attributed
// to the family's highest variant rather than dropped.
func TestUnknownVariantFallsBackToHighest(t *testing.T) {
	cat := testCatalog(t)
	a := newAccountant(t, Config{Catalog: cat, Assignment: models.Assignment{0}})
	a.ObserveInvocation(telemetry.InvocationSample{Minute: 0, Function: 0, Variant: "mystery", Count: 3, AccuracyPct: 50})
	rep := a.Report()
	if got := rep.Functions[0].Actual.MeanAccuracyPct; got != 90 {
		t.Errorf("unknown variant mean accuracy %v, want highest variant's 90", got)
	}
	// Out-of-range functions and variants are dropped, not panics.
	a.ObserveInvocation(telemetry.InvocationSample{Minute: 0, Function: 99, Count: 1})
	a.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 0, Function: 0, Variant: 99})
	a.ObserveDowngrade(telemetry.DowngradeSample{Minute: 0, Function: -3})
	if got := a.Report().Total.Actual.Invocations; got != 3 {
		t.Errorf("invocations after junk samples = %d, want 3", got)
	}
}

// Downgrade events roll the clock too: a downgrade for minute t arrives
// before any engine sample of t (controller events flush first), so it
// must close minute t-1 exactly as a keep-alive sample would.
func TestDowngradeAdvancesMinute(t *testing.T) {
	cat := testCatalog(t)
	a := newAccountant(t, Config{Catalog: cat, Assignment: models.Assignment{0}, Window: 5})
	a.ObserveInvocation(telemetry.InvocationSample{Minute: 0, Function: 0, Variant: "alpha-hi", Cold: true, Count: 1, AccuracyPct: 90})
	a.ObserveDowngrade(telemetry.DowngradeSample{Minute: 3, Function: 0, FromVariant: 1, ToVariant: 0})
	rep := a.Report()
	if rep.Minute != 3 {
		t.Errorf("open minute = %d, want 3", rep.Minute)
	}
	if rep.Functions[0].Downgrades != 1 {
		t.Errorf("downgrades = %d, want 1", rep.Functions[0].Downgrades)
	}
	// Minutes 1..3 opened with the fixed window live (invocation at 0,
	// window 5): 3 fixed-alive minutes so far.
	if got := rep.Functions[0].FixedHigh.KeepAliveMBMinutes; got != 3*2048 {
		t.Errorf("fixed KaM = %v, want %v", got, 3*2048.0)
	}
}

// New must reject broken configurations.
func TestNewValidation(t *testing.T) {
	cat := testCatalog(t)
	// A family of 129 variants: valid as a catalog, but the arena keeps each
	// entrant's held variant in an int8.
	wide := &models.Catalog{Families: []models.Family{{Name: "wide", Task: "test"}}}
	for v := 0; v < 129; v++ {
		wide.Families[0].Variants = append(wide.Families[0].Variants, models.Variant{
			Name: fmt.Sprintf("wide-%d", v), AccuracyPct: 50 + float64(v)/10, ExecSec: 1, ColdStartSec: 2, MemoryMB: 100 + float64(v),
		})
	}
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{},             // nil catalog
		{Catalog: cat}, // empty assignment
		{Catalog: cat, Assignment: models.Assignment{7}}, // family out of range
		{Catalog: cat, Assignment: models.Assignment{0}, Cost: cluster.CostModel{USDPerGBSecond: -1}},
		{Catalog: wide, Assignment: models.Assignment{0}}, // too many variants
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
	a := newAccountant(t, Config{Catalog: cat, Assignment: models.Assignment{0, 1}})
	if a.Window() != cluster.DefaultKeepAliveWindow {
		t.Errorf("default window = %d, want %d", a.Window(), cluster.DefaultKeepAliveWindow)
	}
}

// Steady-state observation must not allocate: one warm minute of samples
// (keep-alive per function, minute rollup, a few invocations) runs with
// zero allocations once the accountant is constructed, like the telemetry
// buffer and the sharded controller's idle path — whether the arena walks
// its three baselines on the calling goroutine or on one goroutine each.
func TestAccountantIdleMinuteZeroAllocs(t *testing.T) {
	for _, walkers := range []int{1, 3} {
		t.Run(fmt.Sprintf("walkers=%d", walkers), func(t *testing.T) {
			cat := testCatalog(t)
			asg := models.Assignment{0, 1, 0, 1}
			a := newAccountantWalkers(t, walkers, Config{Catalog: cat, Assignment: asg, SeriesWindow: 128})

			minute := 0
			observeMinute := func() {
				for fn := range asg {
					a.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: minute, Function: fn, Variant: 0, MemMB: 512})
				}
				a.ObserveMinute(telemetry.MinuteSample{Minute: minute})
				a.ObserveInvocation(telemetry.InvocationSample{Minute: minute, Function: 0, Variant: "alpha-lo", Count: 2, AccuracyPct: 60})
				a.ObserveInvocation(telemetry.InvocationSample{Minute: minute, Function: 1, Variant: "beta-lo", Cold: true, Count: 1, AccuracyPct: 70})
				minute++
			}
			for i := 0; i < 30; i++ { // warm up past the first hour-bucket writes
				observeMinute()
			}
			if avg := allocsPerRun(200, observeMinute); avg != 0 {
				t.Errorf("steady-state minute allocates %v times, want 0", avg)
			}
		})
	}
}
