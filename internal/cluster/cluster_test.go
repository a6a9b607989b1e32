package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// fakePolicy keeps a fixed decision vector alive every minute.
type fakePolicy struct {
	name     string
	alive    []int
	cold     int
	recorded [][]int
}

func (f *fakePolicy) Name() string             { return f.name }
func (f *fakePolicy) KeepAlive(int) []int      { return f.alive }
func (f *fakePolicy) ColdVariant(_, _ int) int { return f.cold }
func (f *fakePolicy) RecordInvocations(t int, counts []int) {
	cp := make([]int, len(counts))
	copy(cp, counts)
	f.recorded = append(f.recorded, cp)
}

func testCatalog() *models.Catalog {
	return &models.Catalog{Families: []models.Family{{
		Name: "F",
		Variants: []models.Variant{
			{Name: "lo", AccuracyPct: 70, ExecSec: 1, ColdStartSec: 4, MemoryMB: 256},
			{Name: "hi", AccuracyPct: 90, ExecSec: 2, ColdStartSec: 10, MemoryMB: 1024},
		},
	}}}
}

func testConfig(counts []int) Config {
	tr := &trace.Trace{Horizon: len(counts), Functions: []trace.Function{
		{ID: 0, Name: "f0", Counts: counts},
	}}
	return Config{
		Trace:      tr,
		Catalog:    testCatalog(),
		Assignment: models.Assignment{0},
		Cost:       DefaultCostModel(),
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig([]int{0, 1})
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.Trace = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil trace accepted")
	}
	bad = cfg
	bad.Catalog = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil catalog accepted")
	}
	bad = cfg
	bad.Assignment = models.Assignment{0, 0}
	if err := bad.Validate(); err == nil {
		t.Error("wrong-length assignment accepted")
	}
	bad = cfg
	bad.Cost = CostModel{}
	if err := bad.Validate(); err == nil {
		t.Error("zero cost rate accepted")
	}
}

func TestRunWarmAccounting(t *testing.T) {
	cfg := testConfig([]int{0, 2, 0})
	p := &fakePolicy{name: "always-hi", alive: []int{1}, cold: 1}
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "always-hi" {
		t.Errorf("policy name = %q", res.Policy)
	}
	if res.Invocations != 2 || res.WarmStarts != 2 || res.ColdStarts != 0 {
		t.Errorf("inv=%d warm=%d cold=%d", res.Invocations, res.WarmStarts, res.ColdStarts)
	}
	// Two warm invocations of "hi": 2 × 2 s exec.
	if res.TotalServiceSec != 4 {
		t.Errorf("service = %v, want 4", res.TotalServiceSec)
	}
	if got := res.MeanAccuracyPct(); got != 90 {
		t.Errorf("accuracy = %v, want 90", got)
	}
	// Keep-alive: 1024 MB for 3 minutes.
	wantCost := cfg.Cost.KeepAliveUSDPerMinute(1024) * 3
	if math.Abs(res.KeepAliveCostUSD-wantCost) > 1e-12 {
		t.Errorf("cost = %v, want %v", res.KeepAliveCostUSD, wantCost)
	}
	for tt, kam := range res.PerMinuteKaMMB {
		if kam != 1024 {
			t.Errorf("KaM[%d] = %v, want 1024", tt, kam)
		}
	}
	if res.WarmStartRate() != 1 {
		t.Errorf("warm rate = %v", res.WarmStartRate())
	}
	// RecordInvocations must have been called each minute with the counts.
	if len(p.recorded) != 3 || p.recorded[1][0] != 2 {
		t.Errorf("recorded = %v", p.recorded)
	}
}

func TestRunColdAccounting(t *testing.T) {
	cfg := testConfig([]int{3})
	p := &fakePolicy{name: "never", alive: []int{NoVariant}, cold: 0}
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// First invocation cold on "lo" (4+1 s), two follow-ups warm (1 s each).
	if res.ColdStarts != 1 || res.WarmStarts != 2 {
		t.Errorf("cold=%d warm=%d", res.ColdStarts, res.WarmStarts)
	}
	if res.TotalServiceSec != 7 {
		t.Errorf("service = %v, want 7", res.TotalServiceSec)
	}
	if got := res.MeanAccuracyPct(); got != 70 {
		t.Errorf("accuracy = %v, want 70", got)
	}
	if res.KeepAliveCostUSD != 0 {
		t.Errorf("cost = %v, want 0 (nothing kept alive)", res.KeepAliveCostUSD)
	}
}

func TestRunRejectsBadPolicies(t *testing.T) {
	cfg := testConfig([]int{1})
	if _, err := Run(cfg, nil); err == nil {
		t.Error("nil policy accepted")
	}
	// Wrong decision vector length.
	p := &fakePolicy{name: "bad", alive: []int{0, 0}, cold: 0}
	if _, err := Run(cfg, p); err == nil {
		t.Error("wrong-length decisions accepted")
	}
	// Invalid keep-alive variant index.
	p = &fakePolicy{name: "bad", alive: []int{7}, cold: 0}
	if _, err := Run(cfg, p); err == nil {
		t.Error("invalid keep-alive variant accepted")
	}
	// Invalid cold variant index.
	p = &fakePolicy{name: "bad", alive: []int{NoVariant}, cold: 9}
	if _, err := Run(cfg, p); err == nil {
		t.Error("invalid cold variant accepted")
	}
}

func TestRunMeasuresOverhead(t *testing.T) {
	cfg := testConfig(make([]int, 100))
	cfg.MeasureOverhead = true
	p := &fakePolicy{name: "x", alive: []int{NoVariant}, cold: 0}
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyCalls != 100 {
		t.Errorf("policy calls = %d, want 100", res.PolicyCalls)
	}
	if res.PolicyOverheadSec < 0 {
		t.Errorf("negative overhead %v", res.PolicyOverheadSec)
	}
}

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel()
	// 1 GB for one minute at $1.667e-5/GB-s = $1.0002e-3.
	got := cm.KeepAliveUSDPerMinute(1024)
	want := 1.667e-5 * 60
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("1 GiB-minute = %v, want %v", got, want)
	}
	if cm.KeepAliveUSDPerMinute(0) != 0 {
		t.Error("zero memory should cost zero")
	}
}

func TestIdealCostSeries(t *testing.T) {
	cfg := testConfig([]int{0, 1, 0, 2})
	ideal, err := IdealCostSeries(cfg.Trace, cfg.Catalog, cfg.Assignment, cfg.Cost)
	if err != nil {
		t.Fatal(err)
	}
	perMin := cfg.Cost.KeepAliveUSDPerMinute(1024) // highest variant
	want := []float64{0, perMin, 0, perMin}
	for tt := range want {
		if math.Abs(ideal[tt]-want[tt]) > 1e-15 {
			t.Errorf("ideal[%d] = %v, want %v", tt, ideal[tt], want[tt])
		}
	}
	if _, err := IdealCostSeries(cfg.Trace, cfg.Catalog, models.Assignment{9}, cfg.Cost); err == nil {
		t.Error("invalid assignment accepted")
	}
}

func TestServiceTimeRecording(t *testing.T) {
	cfg := testConfig([]int{3, 0, 1})
	cfg.RecordServiceTimes = true
	p := &fakePolicy{name: "never", alive: []int{NoVariant}, cold: 0}
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// Minute 0: cold (5s) + 2 warm (1s); minute 2: cold (5s).
	want := []float64{5, 1, 1, 5}
	if len(res.ServiceTimesSec) != len(want) {
		t.Fatalf("samples = %v", res.ServiceTimesSec)
	}
	for i, w := range want {
		if res.ServiceTimesSec[i] != w {
			t.Errorf("sample %d = %v, want %v", i, res.ServiceTimesSec[i], w)
		}
	}
	p50, err := res.ServiceTimePercentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 3 { // interpolated median of {1,1,5,5}
		t.Errorf("P50 = %v, want 3", p50)
	}
	if _, err := res.ServiceTimePercentile(101); err == nil {
		t.Error("out-of-range percentile accepted")
	}
	// Without recording, percentiles error.
	cfg.RecordServiceTimes = false
	res2, err := Run(cfg, &fakePolicy{name: "never", alive: []int{NoVariant}, cold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.ServiceTimesSec) != 0 {
		t.Error("samples recorded without the flag")
	}
	if _, err := res2.ServiceTimePercentile(50); err == nil {
		t.Error("percentile without recording accepted")
	}
}

func TestResultZeroInvocations(t *testing.T) {
	r := &Result{}
	if r.MeanAccuracyPct() != 0 || r.WarmStartRate() != 0 || r.OverheadPerServiceTime() != 0 {
		t.Error("zero-invocation result should return zeros, not NaN")
	}
}

// badVariantPolicy holds nothing warm except at minute m, where it keeps
// variant alive for slot fn (unless alive is NoVariant) and answers fn's
// cold start with variant cold.
type badVariantPolicy struct {
	*fakeDynamic
	m, fn, alive, cold int
}

func (b *badVariantPolicy) Name() string { return "bad-variant" }

func (b *badVariantPolicy) KeepAlive(t int) []int {
	out := make([]int, len(b.names))
	for i := range out {
		out[i] = NoVariant
	}
	if t == b.m {
		out[b.fn] = b.alive
	}
	return out
}

func (b *badVariantPolicy) ColdVariant(t, fn int) int {
	if t == b.m && fn == b.fn {
		return b.cold
	}
	return 0
}

// TestRunReportsInvalidVariants: an out-of-range kept-alive or cold variant
// fails the run, on a static and a churn trace alike, with an error
// naming the policy, the variant, the function and the minute.
func TestRunReportsInvalidVariants(t *testing.T) {
	static := &trace.Trace{Horizon: 4, Functions: []trace.Function{
		{ID: 0, Name: "f0", Counts: []int{1, 0, 1, 0}},
		{ID: 1, Name: "f1", Counts: []int{0, 0, 0, 0}},
		{ID: 2, Name: "f2", Counts: []int{0, 1, 1, 1}},
	}}
	for _, eng := range []struct {
		name  string
		tr    *trace.Trace
		names []string // the policy's population at minute 0
		fn    int      // a slot live and invoked at minute 2
	}{
		{"static", static, []string{"f0", "f1", "f2"}, 2},
		{"churn", churnTrace(t), []string{"f0", "f1"}, 3}, // f2 arrives at 2, after f3
	} {
		for _, tc := range []struct {
			name        string
			alive, cold int
			variant     string
		}{
			{"kept-alive-too-high", 5, 0, "variant 5 "},
			{"kept-alive-negative", -2, 0, "variant -2 "},
			{"cold-too-high", NoVariant, 9, "cold variant 9 "},
		} {
			t.Run(eng.name+"/"+tc.name, func(t *testing.T) {
				p := &badVariantPolicy{fakeDynamic: newFakeDynamic(eng.names), m: 2, fn: eng.fn, alive: tc.alive, cold: tc.cold}
				_, err := Run(churnConfig(eng.tr), p)
				if err == nil {
					t.Fatal("invalid variant accepted")
				}
				for _, want := range []string{`policy "bad-variant"`, tc.variant, fmt.Sprintf("function %d ", eng.fn), "minute 2"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %q", err, want)
					}
				}
			})
		}
	}
}
