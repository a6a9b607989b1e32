package runtime

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"time"

	"github.com/pulse-serverless/pulse/internal/provenance"
)

// MatrixConfig configures a serving-path benchmark matrix: the cross
// product of GOMAXPROCS × functions × mixes × workers × modes, each cell
// one RunLoad call. The matrix is what turns a single flattering sample
// into a scaling curve — BENCH_runtime.json is written from its output.
type MatrixConfig struct {
	// GOMAXPROCS values to sweep. Each cell sets the process-wide value
	// for its duration (restored when RunMatrix returns). Defaults to the
	// current setting only.
	GOMAXPROCS []int
	// Functions values to sweep: the number of registered functions (and
	// so stripes) per cell. Required via NewRuntime's domain; defaults to
	// {12}.
	Functions []int
	// Mixes to sweep (MixUniform/MixZipf/MixHotspot). Defaults to
	// {MixHotspot} — the stripe-contention worst case.
	Mixes []string
	// Workers values to sweep. A zero entry means 2× the cell's
	// GOMAXPROCS, keeping the runnable-goroutine pressure proportional to
	// the parallelism under test. Defaults to {0}.
	Workers []int
	// Modes to sweep. Defaults to {ModeSerial, ModeEpoch}.
	Modes []string
	// Duration, Seed, StepEvery are passed through to each cell's
	// LoadConfig. Duration is required.
	Duration  time.Duration
	Seed      int64
	StepEvery time.Duration
	// NewRuntime constructs the runtime under test for one cell. Required.
	NewRuntime func(functions int, mode string) (*Runtime, error)
	// Progress, when set, is called with each cell's result as it lands.
	Progress func(LoadResult)
}

// MatrixPoint is one comparison row of the summarized matrix: a fixed
// (gomaxprocs, functions, mix, workers) shape with per-mode throughput and
// the speedup ratio the README quotes.
type MatrixPoint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Functions  int    `json:"functions"`
	Mix        string `json:"mix"`
	Workers    int    `json:"workers"`
	// Throughput maps mode → invocations/sec for this shape.
	Throughput map[string]float64 `json:"throughput_inv_per_sec"`
	// SpeedupEpochVsSerial is the ratio of the above (0 when a mode is
	// missing).
	SpeedupEpochVsSerial float64 `json:"speedup_epoch_vs_serial,omitempty"`
}

// RunMatrix executes every cell of the matrix in a deterministic order
// (GOMAXPROCS, then functions, mix, workers, mode) and returns the raw
// results. GOMAXPROCS is mutated per sweep value and restored before
// returning; cells within one GOMAXPROCS value run consecutively so the
// scheduler state is comparable across the modes being contrasted.
func RunMatrix(cfg MatrixConfig) ([]LoadResult, error) {
	if cfg.NewRuntime == nil {
		return nil, fmt.Errorf("runtime: matrix needs a NewRuntime constructor")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("runtime: non-positive matrix cell duration %v", cfg.Duration)
	}
	if len(cfg.GOMAXPROCS) == 0 {
		cfg.GOMAXPROCS = []int{goruntime.GOMAXPROCS(0)}
	}
	if len(cfg.Functions) == 0 {
		cfg.Functions = []int{12}
	}
	if len(cfg.Mixes) == 0 {
		cfg.Mixes = []string{MixHotspot}
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{0}
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []string{ModeSerial, ModeEpoch}
	}
	for _, gmp := range cfg.GOMAXPROCS {
		if gmp <= 0 {
			return nil, fmt.Errorf("runtime: non-positive GOMAXPROCS %d in matrix", gmp)
		}
	}
	for _, w := range cfg.Workers {
		if w < 0 {
			return nil, fmt.Errorf("runtime: negative worker count %d in matrix (0 means 2×GOMAXPROCS)", w)
		}
	}
	for _, mode := range cfg.Modes {
		switch mode {
		case ModeSerial, ModeEpoch:
		default:
			return nil, fmt.Errorf("runtime: unknown mode %q in matrix (want %s or %s)", mode, ModeSerial, ModeEpoch)
		}
	}

	prev := goruntime.GOMAXPROCS(0)
	defer goruntime.GOMAXPROCS(prev)

	var results []LoadResult
	for _, gmp := range cfg.GOMAXPROCS {
		goruntime.GOMAXPROCS(gmp)
		for _, fns := range cfg.Functions {
			for _, mix := range cfg.Mixes {
				for _, workers := range cfg.Workers {
					w := workers
					if w == 0 {
						w = 2 * gmp
					}
					for _, mode := range cfg.Modes {
						rt, err := cfg.NewRuntime(fns, mode)
						if err != nil {
							return nil, fmt.Errorf("runtime: matrix cell (%d fns, %s): %w", fns, mode, err)
						}
						res, err := RunLoad(rt, LoadConfig{
							Workers:   w,
							Duration:  cfg.Duration,
							Mix:       mix,
							Seed:      cfg.Seed,
							StepEvery: cfg.StepEvery,
						})
						rt.Close()
						if err != nil {
							return nil, err
						}
						results = append(results, res)
						if cfg.Progress != nil {
							cfg.Progress(res)
						}
					}
				}
			}
		}
	}
	return results, nil
}

// TracerOverheadGuardPct is the published budget for sampled invocation
// tracing: at the default 1-in-1024 stride, the tracer may cost at most
// this percentage of epoch-mode throughput. The bench matrix reports the
// measured delta against it (advisory — single 2s cells are too noisy for
// a hard CI gate).
const TracerOverheadGuardPct = 2.0

// DefaultTracerDeltaStride is the sampling period the tracer-overhead
// measurement uses unless configured otherwise; it matches the stride the
// guard is quoted for.
const DefaultTracerDeltaStride = 1024

// TracerDeltaConfig configures the tracer-overhead measurement: one run
// shape, benchmarked twice back to back — once with a tracer attached but
// disabled (the pinned one-atomic-load carry cost) and once sampling at
// Stride — so the delta isolates what turning sampling on costs.
type TracerDeltaConfig struct {
	// Functions, Mix, Workers fix the single shape under test. Defaults: 12
	// functions, MixHotspot, workers = 2×GOMAXPROCS.
	Functions int
	Mix       string
	Workers   int
	// Duration, Seed, StepEvery are passed to both cells' LoadConfig.
	// Duration is required.
	Duration  time.Duration
	Seed      int64
	StepEvery time.Duration
	// Stride is the 1-in-K sampling period for the tracer-on cell.
	// Defaults to DefaultTracerDeltaStride.
	Stride int64
	// NewRuntime constructs the runtime under test — production (epoch)
	// serving, the mode the guard is quoted for — with the given tracer
	// attached. Required.
	NewRuntime func(functions int, tracer *provenance.Tracer) (*Runtime, error)
}

// TracerDelta is the published tracer-on vs tracer-off comparison:
// throughput for both cells, the overhead percentage, the sampling volume
// that bought it, and whether the measurement landed inside
// TracerOverheadGuardPct.
type TracerDelta struct {
	Mode          string  `json:"mode"`
	Stride        int64   `json:"stride"`
	OffThroughput float64 `json:"throughput_off_inv_per_sec"`
	OnThroughput  float64 `json:"throughput_on_inv_per_sec"`
	OverheadPct   float64 `json:"overhead_pct"`
	Attempts      uint64  `json:"attempts"`
	Sampled       uint64  `json:"sampled"`
	GuardPct      float64 `json:"guard_pct"`
	WithinGuard   bool    `json:"within_guard"`
	// Off and On carry the two full cell results for drill-down.
	Off LoadResult `json:"off"`
	On  LoadResult `json:"on"`
}

// RunTracerDelta benchmarks the configured shape tracer-off then tracer-on
// and returns the throughput delta. A negative OverheadPct means the on
// cell measured faster — ordinary noise at short durations, and always
// within the guard.
func RunTracerDelta(cfg TracerDeltaConfig) (TracerDelta, error) {
	if cfg.NewRuntime == nil {
		return TracerDelta{}, fmt.Errorf("runtime: tracer delta needs a NewRuntime constructor")
	}
	if cfg.Duration <= 0 {
		return TracerDelta{}, fmt.Errorf("runtime: non-positive tracer-delta cell duration %v", cfg.Duration)
	}
	if cfg.Stride < 0 {
		return TracerDelta{}, fmt.Errorf("runtime: negative tracer-delta stride %d", cfg.Stride)
	}
	if cfg.Stride == 0 {
		cfg.Stride = DefaultTracerDeltaStride
	}
	if cfg.Functions <= 0 {
		cfg.Functions = 12
	}
	if cfg.Mix == "" {
		cfg.Mix = MixHotspot
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2 * goruntime.GOMAXPROCS(0)
	}

	cell := func(tracer *provenance.Tracer) (LoadResult, error) {
		rt, err := cfg.NewRuntime(cfg.Functions, tracer)
		if err != nil {
			return LoadResult{}, fmt.Errorf("runtime: tracer-delta cell (%d fns): %w", cfg.Functions, err)
		}
		res, err := RunLoad(rt, LoadConfig{
			Workers:   cfg.Workers,
			Duration:  cfg.Duration,
			Mix:       cfg.Mix,
			Seed:      cfg.Seed,
			StepEvery: cfg.StepEvery,
		})
		rt.Close()
		return res, err
	}

	// Off is a tracer attached with sampling disabled, not a nil tracer:
	// the carry cost is part of every deployment and must not be billed to
	// sampling.
	off, err := cell(provenance.NewTracer(provenance.TracerConfig{}))
	if err != nil {
		return TracerDelta{}, err
	}
	onTracer := provenance.NewTracer(provenance.TracerConfig{Stride: cfg.Stride})
	on, err := cell(onTracer)
	if err != nil {
		return TracerDelta{}, err
	}

	d := TracerDelta{
		Mode:          on.Mode,
		Stride:        cfg.Stride,
		OffThroughput: off.Throughput,
		OnThroughput:  on.Throughput,
		GuardPct:      TracerOverheadGuardPct,
		Off:           off,
		On:            on,
	}
	st := onTracer.Stats()
	d.Attempts, d.Sampled = st.Attempts, st.Sampled
	if off.Throughput > 0 {
		d.OverheadPct = (off.Throughput - on.Throughput) / off.Throughput * 100
	}
	d.WithinGuard = d.OverheadPct < TracerOverheadGuardPct
	return d, nil
}

// SummarizeMatrix groups raw matrix results by run shape and computes the
// per-shape mode comparison. Rows come back in the matrix's own sweep order
// (GOMAXPROCS, functions, mix, workers).
func SummarizeMatrix(results []LoadResult) []MatrixPoint {
	type key struct {
		gmp, fns, workers int
		mix               string
	}
	order := make([]key, 0, len(results))
	points := make(map[key]*MatrixPoint)
	for _, r := range results {
		k := key{r.GOMAXPROCS, r.Functions, r.Workers, r.Mix}
		p, ok := points[k]
		if !ok {
			p = &MatrixPoint{
				GOMAXPROCS: r.GOMAXPROCS,
				Functions:  r.Functions,
				Mix:        r.Mix,
				Workers:    r.Workers,
				Throughput: map[string]float64{},
			}
			points[k] = p
			order = append(order, k)
		}
		p.Throughput[r.Mode] = r.Throughput
	}
	// Stable row order regardless of result interleaving.
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.gmp != b.gmp {
			return a.gmp < b.gmp
		}
		if a.fns != b.fns {
			return a.fns < b.fns
		}
		if a.mix != b.mix {
			return a.mix < b.mix
		}
		return a.workers < b.workers
	})
	out := make([]MatrixPoint, 0, len(order))
	for _, k := range order {
		p := points[k]
		if serial, epoch := p.Throughput[ModeSerial], p.Throughput[ModeEpoch]; serial > 0 && epoch > 0 {
			p.SpeedupEpochVsSerial = epoch / serial
		}
		out = append(out, *p)
	}
	return out
}
