package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	goruntime "runtime"
	"sync"
	"time"
)

// Arrival mixes for the load generator: which functions the synthetic
// callers hit.
const (
	// MixUniform spreads invocations evenly across every function.
	MixUniform = "uniform"
	// MixZipf skews invocations Zipf(s=1.2) towards low-numbered
	// functions — the realistic "few hot functions" shape.
	MixZipf = "zipf"
	// MixHotspot sends 80% of invocations to function 0 and spreads the
	// rest uniformly — the worst case for a striped lock architecture,
	// since most traffic contends on one stripe.
	MixHotspot = "hotspot"
)

// LoadConfig configures one closed-loop load-generation run against a
// Runtime (see RunLoad).
type LoadConfig struct {
	// Workers is the number of concurrent closed-loop callers; each
	// issues its next invocation as soon as the previous one returns.
	// Defaults to GOMAXPROCS.
	Workers int
	// Duration is the wall-clock run length. Required.
	Duration time.Duration
	// Mix selects the arrival mix: MixUniform (default), MixZipf, or
	// MixHotspot.
	Mix string
	// Seed derives each worker's private RNG; identical seeds draw
	// identical per-worker function sequences.
	Seed int64
	// StepEvery, when positive, advances the runtime's minute barrier on
	// this wall-clock cadence from a background stepper, so the run
	// exercises Invoke/Step interleaving and the policy's decision path,
	// not just the invocation fast path.
	StepEvery time.Duration
}

// LoadResult is the outcome of one RunLoad call — the record the load
// harness serializes into BENCH_runtime.json (field names below are the
// JSON fields).
type LoadResult struct {
	// Mode is the runtime's serving architecture: "serial" or "epoch".
	Mode string `json:"mode"`
	// Workers and Functions describe the run shape; GOMAXPROCS is the
	// parallelism available to the Go scheduler when the run executed.
	Workers    int    `json:"workers"`
	Functions  int    `json:"functions"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Mix        string `json:"mix"`
	// DurationSec is the measured wall time of the run.
	DurationSec float64 `json:"duration_sec"`
	// Invocations is the number of successful invocations; Throughput is
	// Invocations / DurationSec.
	Invocations int64   `json:"invocations"`
	Throughput  float64 `json:"throughput_inv_per_sec"`
	// MinutesStepped counts barrier advances performed by the background
	// stepper during the run.
	MinutesStepped int64 `json:"minutes_stepped"`
	// Errors counts failed invocations (0 in a healthy run).
	Errors int64 `json:"errors"`
	// Latency percentiles of Invoke wall time, in microseconds. The
	// histogram buckets are powers of two of nanoseconds, so percentiles
	// are upper bounds accurate to 2×; Max is exact.
	LatencyP50us float64 `json:"latency_p50_us"`
	LatencyP90us float64 `json:"latency_p90_us"`
	LatencyP99us float64 `json:"latency_p99_us"`
	LatencyMaxus float64 `json:"latency_max_us"`
}

// latencyHist is a power-of-two-bucketed nanosecond histogram: cheap
// enough for the invocation hot loop, mergeable across workers, with 2×
// percentile resolution and an exact max.
type latencyHist struct {
	buckets [64]int64
	count   int64
	max     int64
}

func (h *latencyHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))]++
	h.count++
	if ns > h.max {
		h.max = ns
	}
}

func (h *latencyHist) merge(o *latencyHist) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
}

// percentile returns an upper bound (in nanoseconds) under which fraction
// p of observations fall. The top populated bucket is clamped to the exact
// max.
func (h *latencyHist) percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(p * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			upper := int64(1) << uint(i)
			if upper > h.max {
				upper = h.max
			}
			return float64(upper)
		}
	}
	return float64(h.max)
}

// picker returns a deterministic function-index source for one worker.
func picker(mix string, rng *rand.Rand, nFn int) (func() int, error) {
	switch mix {
	case MixUniform, "":
		return func() int { return rng.Intn(nFn) }, nil
	case MixZipf:
		z := rand.NewZipf(rng, 1.2, 1, uint64(nFn-1))
		return func() int { return int(z.Uint64()) }, nil
	case MixHotspot:
		return func() int {
			if nFn == 1 || rng.Float64() < 0.8 {
				return 0
			}
			return 1 + rng.Intn(nFn-1)
		}, nil
	default:
		return nil, fmt.Errorf("runtime: unknown load mix %q (want %s, %s, or %s)", mix, MixUniform, MixZipf, MixHotspot)
	}
}

// RunLoad hammers a Runtime with cfg.Workers closed-loop callers for
// cfg.Duration and reports throughput and Invoke latency percentiles — the
// load harness behind cmd/pulseload and the BENCH_runtime.json trajectory.
// The runtime is left stepped but open; the caller owns Close.
func RunLoad(rt *Runtime, cfg LoadConfig) (LoadResult, error) {
	if rt == nil {
		return LoadResult{}, fmt.Errorf("runtime: nil runtime")
	}
	if cfg.Duration <= 0 {
		return LoadResult{}, fmt.Errorf("runtime: non-positive load duration %v", cfg.Duration)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = goruntime.GOMAXPROCS(0)
	}
	if cfg.Mix == "" {
		cfg.Mix = MixUniform
	}
	nFn := rt.NumFunctions()
	if _, err := picker(cfg.Mix, rand.New(rand.NewSource(0)), nFn); err != nil {
		return LoadResult{}, err
	}

	var (
		stop    = make(chan struct{})
		stepped int64
		stepWg  sync.WaitGroup
	)
	if cfg.StepEvery > 0 {
		stepWg.Add(1)
		go func() {
			defer stepWg.Done()
			tick := time.NewTicker(cfg.StepEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if err := rt.Step(); err != nil {
						return
					}
					stepped++
				}
			}
		}()
	}

	hists := make([]latencyHist, cfg.Workers)
	errCounts := make([]int64, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			pick, _ := picker(cfg.Mix, rng, nFn)
			h := &hists[w]
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				_, err := rt.Invoke(pick())
				if err != nil {
					errCounts[w]++
					if errors.Is(err, ErrClosed) {
						return
					}
					continue
				}
				h.observe(int64(time.Since(t0)))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	stepWg.Wait()

	var total latencyHist
	var errs int64
	for w := range hists {
		total.merge(&hists[w])
		errs += errCounts[w]
	}
	const usPerNs = 1e-3
	return LoadResult{
		Mode:           rt.Mode(),
		Workers:        cfg.Workers,
		Functions:      nFn,
		GOMAXPROCS:     goruntime.GOMAXPROCS(0),
		Mix:            cfg.Mix,
		DurationSec:    elapsed.Seconds(),
		Invocations:    total.count,
		Throughput:     float64(total.count) / elapsed.Seconds(),
		MinutesStepped: stepped,
		Errors:         errs,
		LatencyP50us:   total.percentile(0.50) * usPerNs,
		LatencyP90us:   total.percentile(0.90) * usPerNs,
		LatencyP99us:   total.percentile(0.99) * usPerNs,
		LatencyMaxus:   float64(total.max) * usPerNs,
	}, nil
}
