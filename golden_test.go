package pulse_test

// Golden regression test: a small seeded workload is pinned to the exact
// numbers committed in testdata/golden.json, so any change to the
// controller's decision semantics — however subtle — fails loudly instead
// of drifting. Regenerate deliberately after an intended semantic change:
//
//	go test . -run TestGoldenResult -update-golden
//
// Floats are compared with a tiny relative tolerance so the pins survive
// architectures with different FMA contraction, while still catching any
// real semantic drift.

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

// goldenResult is the pinned digest of the reference run.
type goldenResult struct {
	Seed             int64   `json:"seed"`
	HorizonMinutes   int     `json:"horizon_minutes"`
	Functions        int     `json:"functions"`
	Policy           string  `json:"policy"`
	KeepAliveCostUSD float64 `json:"keep_alive_cost_usd"`
	WarmStarts       int     `json:"warm_starts"`
	ColdStarts       int     `json:"cold_starts"`
	Invocations      int     `json:"invocations"`
	TotalServiceSec  float64 `json:"total_service_sec"`
	AccuracySumPct   float64 `json:"accuracy_sum_pct"`
	Downgrades       int     `json:"downgrades"`
	PeakMinutes      int     `json:"peak_minutes"`
	KaMSumMB         float64 `json:"kam_sum_mb"`
	KaMPeakMB        float64 `json:"kam_peak_mb"`
	// Counterfactual attribution aggregates: net keep-alive savings versus
	// the fixed-10-min high-quality shadow baseline, and the cold-start
	// ledger on both sides of that comparison.
	SavingsVsFixedUSD  float64 `json:"savings_vs_fixed_usd"`
	FixedColdStarts    int     `json:"fixed_cold_starts"`
	ColdAvoidedVsFixed int     `json:"cold_avoided_vs_fixed"`
}

func goldenRun(t *testing.T, shards int) (*pulse.SimulationResult, *pulse.Pulse, *pulse.Trace, *pulse.Accountant) {
	t.Helper()
	const seed, horizon = 42, trace.MinutesPerDay
	tr, err := pulse.GenerateTrace(pulse.TraceConfig{Seed: seed, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	cat := pulse.Catalog()
	asg := pulse.UniformAssignment(cat, len(tr.Functions))
	acct, err := pulse.NewAccountant(pulse.AttributionConfig{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pulse.New(pulse.Config{Catalog: cat, Assignment: asg, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	res, err := pulse.Simulate(pulse.SimulationConfig{Trace: tr, Catalog: cat, Assignment: asg, Observer: acct}, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, p, tr, acct
}

func digest(res *pulse.SimulationResult, p *pulse.Pulse, tr *pulse.Trace, acct *pulse.Accountant) goldenResult {
	g := goldenResult{
		Seed:             42,
		HorizonMinutes:   tr.Horizon,
		Functions:        len(tr.Functions),
		Policy:           p.Name(),
		KeepAliveCostUSD: res.KeepAliveCostUSD,
		WarmStarts:       res.WarmStarts,
		ColdStarts:       res.ColdStarts,
		Invocations:      res.Invocations,
		TotalServiceSec:  res.TotalServiceSec,
		AccuracySumPct:   res.AccuracySumPct,
		Downgrades:       p.TotalDowngrades(),
		PeakMinutes:      p.PeakMinutes(),
	}
	for _, v := range res.PerMinuteKaMMB {
		g.KaMSumMB += v
		if v > g.KaMPeakMB {
			g.KaMPeakMB = v
		}
	}
	rep := acct.Report()
	g.SavingsVsFixedUSD = rep.Total.VsFixed.KeepAliveCostUSD
	g.FixedColdStarts = rep.Total.FixedHigh.ColdStarts
	g.ColdAvoidedVsFixed = rep.Total.VsFixed.ColdStartsAvoided
	return g
}

func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func TestGoldenResult(t *testing.T) {
	res, p, tr, acct := goldenRun(t, 1)
	got := digest(res, p, tr, acct)
	path := filepath.Join("testdata", "golden.json")

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want goldenResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	if got.Policy != want.Policy || got.Functions != want.Functions || got.HorizonMinutes != want.HorizonMinutes {
		t.Fatalf("run shape changed: got %s/%d fns/%d min, want %s/%d/%d",
			got.Policy, got.Functions, got.HorizonMinutes, want.Policy, want.Functions, want.HorizonMinutes)
	}
	if got.WarmStarts != want.WarmStarts || got.ColdStarts != want.ColdStarts || got.Invocations != want.Invocations {
		t.Errorf("starts: got %d warm / %d cold / %d total, want %d / %d / %d",
			got.WarmStarts, got.ColdStarts, got.Invocations, want.WarmStarts, want.ColdStarts, want.Invocations)
	}
	if got.Downgrades != want.Downgrades {
		t.Errorf("downgrades: got %d, want %d", got.Downgrades, want.Downgrades)
	}
	if got.PeakMinutes != want.PeakMinutes {
		t.Errorf("peak minutes: got %d, want %d", got.PeakMinutes, want.PeakMinutes)
	}
	if got.FixedColdStarts != want.FixedColdStarts || got.ColdAvoidedVsFixed != want.ColdAvoidedVsFixed {
		t.Errorf("attribution colds: got %d fixed / %d avoided, want %d / %d",
			got.FixedColdStarts, got.ColdAvoidedVsFixed, want.FixedColdStarts, want.ColdAvoidedVsFixed)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"keep-alive cost USD", got.KeepAliveCostUSD, want.KeepAliveCostUSD},
		{"total service sec", got.TotalServiceSec, want.TotalServiceSec},
		{"accuracy sum pct", got.AccuracySumPct, want.AccuracySumPct},
		{"KaM sum MB", got.KaMSumMB, want.KaMSumMB},
		{"KaM peak MB", got.KaMPeakMB, want.KaMPeakMB},
		{"savings vs fixed USD", got.SavingsVsFixedUSD, want.SavingsVsFixedUSD},
	} {
		if !floatClose(f.got, f.want) {
			t.Errorf("%s: got %.12g, want %.12g", f.name, f.got, f.want)
		}
	}
}

// TestGoldenResultSharded pins the sharded controller to the same golden
// numbers: the default shard count (one per GOMAXPROCS) must reproduce the
// committed serial digest exactly.
func TestGoldenResultSharded(t *testing.T) {
	res, p, tr, acct := goldenRun(t, 0)
	got := digest(res, p, tr, acct)
	serialRes, serialP, serialTr, serialAcct := goldenRun(t, 1)
	want := digest(serialRes, serialP, serialTr, serialAcct)
	want.Policy = got.Policy // same by construction; compare the numbers
	if got != want {
		t.Errorf("sharded digest diverges from serial:\n got %+v\nwant %+v", got, want)
	}
}
