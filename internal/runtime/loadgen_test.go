package runtime

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/policy"
)

func newLoadRuntime(t *testing.T, mode string) *Runtime {
	t.Helper()
	cat, asg := testSetup(t)
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := RunLoad(nil, LoadConfig{Duration: time.Millisecond}); err == nil {
		t.Error("nil runtime accepted")
	}
	r := newLoadRuntime(t, ModeEpoch)
	defer r.Close()
	if _, err := RunLoad(r, LoadConfig{}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := RunLoad(r, LoadConfig{Duration: time.Millisecond, Mix: "nope"}); err == nil {
		t.Error("unknown mix accepted")
	}
}

// TestRunLoadSmoke runs the harness briefly in both serving modes
// with a live stepper and checks the result's internal consistency:
// successful invocations counted, percentiles monotone, totals agreeing
// with the runtime's own counters.
func TestRunLoadSmoke(t *testing.T) {
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			r := newLoadRuntime(t, mode)
			defer r.Close()
			res, err := RunLoad(r, LoadConfig{
				Workers:   4,
				Duration:  50 * time.Millisecond,
				Mix:       MixZipf,
				Seed:      7,
				StepEvery: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != mode {
				t.Errorf("mode = %q, want %q", res.Mode, mode)
			}
			if res.Invocations == 0 {
				t.Fatal("no invocations recorded")
			}
			if res.Errors != 0 {
				t.Errorf("%d errors", res.Errors)
			}
			if res.Throughput <= 0 || res.DurationSec <= 0 {
				t.Errorf("throughput %v over %vs", res.Throughput, res.DurationSec)
			}
			if res.MinutesStepped == 0 {
				t.Error("stepper never advanced the minute barrier")
			}
			if !(res.LatencyP50us <= res.LatencyP90us && res.LatencyP90us <= res.LatencyP99us && res.LatencyP99us <= res.LatencyMaxus) {
				t.Errorf("percentiles not monotone: p50 %v p90 %v p99 %v max %v",
					res.LatencyP50us, res.LatencyP90us, res.LatencyP99us, res.LatencyMaxus)
			}
			if got := int64(r.Stats().Invocations); got != res.Invocations {
				t.Errorf("runtime counted %d invocations, harness %d", got, res.Invocations)
			}
		})
	}
}

// TestRunLoadClosedRuntime: workers hitting a closed runtime must bail out
// immediately with errors counted, not spin or panic.
func TestRunLoadClosedRuntime(t *testing.T) {
	r := newLoadRuntime(t, ModeEpoch)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := RunLoad(r, LoadConfig{Workers: 3, Duration: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations != 0 {
		t.Errorf("%d invocations against a closed runtime", res.Invocations)
	}
	if res.Errors == 0 {
		t.Error("closed-runtime errors not counted")
	}
}

func TestLatencyHistPercentiles(t *testing.T) {
	var h latencyHist
	if h.percentile(0.5) != 0 {
		t.Error("empty histogram percentile should be 0")
	}
	for i := 0; i < 90; i++ {
		h.observe(1000) // bucket upper bound 1024
	}
	for i := 0; i < 10; i++ {
		h.observe(1_000_000) // bucket upper bound 2^20, clamped to max
	}
	h.observe(-1) // clamped to 0, bucket 0
	if got := h.percentile(0.5); got != 1024 {
		t.Errorf("p50 = %v, want 1024", got)
	}
	if got := h.percentile(0.999); got != 1_000_000 {
		t.Errorf("p99.9 = %v, want exact max 1000000", got)
	}
	if h.max != 1_000_000 {
		t.Errorf("max = %d", h.max)
	}

	var other latencyHist
	other.observe(2_000_000)
	h.merge(&other)
	if h.count != 102 || h.max != 2_000_000 {
		t.Errorf("merge: count %d max %d", h.count, h.max)
	}
}

// TestPickerDeterminismAndBounds: every mix must stay within the function
// range and reproduce with the same seed.
func TestPickerDeterminism(t *testing.T) {
	for _, mix := range []string{MixUniform, MixZipf, MixHotspot} {
		draw := func() []int {
			rng := rand.New(rand.NewSource(42))
			pick, err := picker(mix, rng, 5)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int, 200)
			for i := range out {
				out[i] = pick()
				if out[i] < 0 || out[i] >= 5 {
					t.Fatalf("mix %s picked out-of-range function %d", mix, out[i])
				}
			}
			return out
		}
		a, b := draw(), draw()
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("mix %s not deterministic at draw %d", mix, i)
				break
			}
		}
	}
	// Single-function degenerate cases must not panic.
	for _, mix := range []string{MixUniform, MixZipf, MixHotspot} {
		pick, err := picker(mix, rand.New(rand.NewSource(1)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := pick(); got != 0 {
			t.Errorf("mix %s with one function picked %d", mix, got)
		}
	}
}
