package runtime

import (
	"fmt"
	goruntime "runtime"
	"time"
)

// Population-scale benchmark: RunScale measures what a large mostly-idle
// population *costs* — resting heap bytes per registered function and the
// minute-step latency with nothing (and then a small fraction) of the fleet
// active. These are the two numbers the flat-arena + idle-skip design exists
// to hold down: memory must stay a few hundred bytes per slot and the minute
// barrier must scale with the active set, not the population.

// DefaultScalePopulations is the population sweep the scale benchmark runs
// unless configured otherwise.
var DefaultScalePopulations = []int{10_000, 100_000, 1_000_000}

// DefaultScaleActivePct is the fraction of the population (in percent)
// invoked each active minute.
const DefaultScaleActivePct = 1.0

// DefaultScaleMinutes is the number of timed minute steps per phase.
const DefaultScaleMinutes = 8

// ScaleConfig configures one scale sweep.
type ScaleConfig struct {
	// Populations to sweep. Defaults to DefaultScalePopulations.
	Populations []int
	// ActivePct is the percentage of slots invoked per active minute
	// (clamped to at least one slot). Defaults to DefaultScaleActivePct.
	ActivePct float64
	// Minutes is the number of timed Steps in each of the idle and active
	// phases. Defaults to DefaultScaleMinutes.
	Minutes int
	// NewRuntime constructs the runtime under test for one population.
	// Required.
	NewRuntime func(functions int) (*Runtime, error)
	// Progress, when set, is called with each population's result as it
	// lands.
	Progress func(ScaleResult)
}

// ScaleResult is one population cell of the scale benchmark.
type ScaleResult struct {
	Functions int    `json:"functions"`
	Mode      string `json:"mode"`
	// ActiveFunctions is how many distinct slots were invoked each active
	// minute (ActivePct of the population, at least one).
	ActivePct       float64 `json:"active_pct"`
	ActiveFunctions int     `json:"active_functions"`
	// BuildSeconds is the wall time to construct policy + runtime for the
	// population.
	BuildSeconds float64 `json:"build_seconds"`
	// HeapBytes is the resting live-heap delta attributable to the built
	// runtime (GC'd before and after construction), and BytesPerFunction
	// divides it by the population.
	HeapBytes        uint64  `json:"heap_bytes"`
	BytesPerFunction float64 `json:"bytes_per_function"`
	// IdleStepMicros is the mean Step latency over Minutes minutes with no
	// invocations at all; ActiveStepMicros the same with ActiveFunctions
	// slots invoked once each before every Step. Invoke time is excluded —
	// only the barrier itself is timed.
	IdleStepMicros   float64 `json:"idle_step_us"`
	ActiveStepMicros float64 `json:"active_step_us"`
	// MinutesStepped is the total Steps taken (both phases plus warmup).
	MinutesStepped int `json:"minutes_stepped"`
}

// RunScale executes the population sweep in ascending order and returns one
// result per population. Each cell builds a fresh runtime, measures its
// resting heap, times Minutes idle Steps, then Minutes active Steps with
// ActivePct of the slots invoked once per minute, and tears the runtime
// down before the next cell.
func RunScale(cfg ScaleConfig) ([]ScaleResult, error) {
	if cfg.NewRuntime == nil {
		return nil, fmt.Errorf("runtime: scale sweep needs a NewRuntime constructor")
	}
	if len(cfg.Populations) == 0 {
		cfg.Populations = DefaultScalePopulations
	}
	for _, n := range cfg.Populations {
		if n <= 0 {
			return nil, fmt.Errorf("runtime: non-positive population %d in scale sweep", n)
		}
	}
	if cfg.ActivePct == 0 {
		cfg.ActivePct = DefaultScaleActivePct
	}
	if cfg.ActivePct < 0 || cfg.ActivePct > 100 {
		return nil, fmt.Errorf("runtime: scale active percentage %.2f out of range (0, 100]", cfg.ActivePct)
	}
	if cfg.Minutes == 0 {
		cfg.Minutes = DefaultScaleMinutes
	}
	if cfg.Minutes < 0 {
		return nil, fmt.Errorf("runtime: negative scale minutes %d", cfg.Minutes)
	}

	results := make([]ScaleResult, 0, len(cfg.Populations))
	for _, n := range cfg.Populations {
		res, err := runScaleCell(cfg, n)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		if cfg.Progress != nil {
			cfg.Progress(res)
		}
	}
	return results, nil
}

// runScaleCell measures one population.
func runScaleCell(cfg ScaleConfig, n int) (ScaleResult, error) {
	res := ScaleResult{Functions: n, ActivePct: cfg.ActivePct}

	// Resting footprint: live heap before vs after construction, both
	// measured post-GC so the delta is retained bytes, not allocation
	// churn. A full GC at 1M slots is a few hundred ms — negligible next
	// to the build itself.
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)

	t0 := time.Now()
	rt, err := cfg.NewRuntime(n)
	if err != nil {
		return ScaleResult{}, fmt.Errorf("runtime: scale cell %d: %w", n, err)
	}
	defer rt.Close()
	res.Mode = rt.Mode()
	res.BuildSeconds = time.Since(t0).Seconds()

	goruntime.GC()
	goruntime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		res.HeapBytes = after.HeapAlloc - before.HeapAlloc
	}
	res.BytesPerFunction = float64(res.HeapBytes) / float64(n)

	// Active set: ActivePct of the population, at least one slot, spread
	// evenly so the invocations land across stripes and (in the sharded
	// policy case) shards.
	active := int(float64(n) * cfg.ActivePct / 100)
	if active < 1 {
		active = 1
	}
	if active > n {
		active = n
	}
	res.ActiveFunctions = active

	step := func() (time.Duration, error) {
		s0 := time.Now()
		if err := rt.Step(); err != nil {
			return 0, fmt.Errorf("runtime: scale cell %d step: %w", n, err)
		}
		return time.Since(s0), nil
	}

	// One untimed warmup Step starts the runtime (first Step pays
	// one-time startLocked work) so the timed phases measure steady state.
	if _, err := step(); err != nil {
		return ScaleResult{}, err
	}
	res.MinutesStepped++

	var idle time.Duration
	for i := 0; i < cfg.Minutes; i++ {
		d, err := step()
		if err != nil {
			return ScaleResult{}, err
		}
		idle += d
		res.MinutesStepped++
	}
	if cfg.Minutes > 0 {
		res.IdleStepMicros = float64(idle) / float64(cfg.Minutes) / float64(time.Microsecond)
	}

	var activeDur time.Duration
	for i := 0; i < cfg.Minutes; i++ {
		for j := 0; j < active; j++ {
			fn := j * n / active
			if _, err := rt.Invoke(fn); err != nil {
				return ScaleResult{}, fmt.Errorf("runtime: scale cell %d invoke %d: %w", n, fn, err)
			}
		}
		d, err := step()
		if err != nil {
			return ScaleResult{}, err
		}
		activeDur += d
		res.MinutesStepped++
	}
	if cfg.Minutes > 0 {
		res.ActiveStepMicros = float64(activeDur) / float64(cfg.Minutes) / float64(time.Microsecond)
	}
	return res, nil
}
