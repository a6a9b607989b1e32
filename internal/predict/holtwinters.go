package predict

import (
	"fmt"
	"math"
)

// HoltWinters implements additive triple exponential smoothing — level,
// trend, and a daily seasonal profile — over per-minute invocation counts.
// It is not one of the paper's two comparison techniques; it is the
// "different keep-alive durations / other predictors" extension the paper's
// discussion invites, and slots into the same Warmer interface so it can be
// evaluated standalone or PULSE-integrated like Wild and IceBreaker.
//
// The seasonal profile is stored minute-major in blocks of hwBlock
// functions: every function is observed once per minute at the same
// seasonal index, so minute m's pass over ascending fn reads one contiguous
// row per block instead of one cache line out of every function's own
// season array.
type HoltWinters struct {
	cfg     HWConfig
	level   []float64
	trend   []float64
	season  [][]float64 // season[fn/hwBlock][si*hwBlock + fn%hwBlock], si the minute of the season
	seen    []bool      // function observed at least once
	lastInv []int32     // minute of the last invoked observation, -1 before any
}

// hwBlock is how many functions share one season block. A row of a block is
// hwBlock*8 bytes — eight cache lines — and a block SeasonLength rows; a
// population pays for whole blocks, so the last one is partly unused.
const (
	hwBlockShift = 6
	hwBlock      = 1 << hwBlockShift
)

// grow adds one never-observed function slot, allocating a season block
// when the slot is the first of its block.
func (hw *HoltWinters) grow() {
	if len(hw.level)%hwBlock == 0 {
		hw.season = append(hw.season, make([]float64, hw.cfg.SeasonLength*hwBlock))
	}
	hw.level = append(hw.level, 0)
	hw.trend = append(hw.trend, 0)
	hw.seen = append(hw.seen, false)
	hw.lastInv = append(hw.lastInv, -1)
}

// cell addresses function fn's seasonal component at season index si.
func (hw *HoltWinters) cell(fn, si int) *float64 {
	return &hw.season[fn>>hwBlockShift][si<<hwBlockShift|fn&(hwBlock-1)]
}

// HWConfig parameterizes the smoother.
type HWConfig struct {
	// Alpha, Beta, Gamma are the level, trend, and seasonal smoothing
	// factors, each in (0, 1).
	Alpha, Beta, Gamma float64
	// SeasonLength is the seasonal period in minutes (default one day).
	SeasonLength int
	// ActivationThreshold pre-warms a function when its one-step forecast
	// is at or above it.
	ActivationThreshold float64
	// PostInvocationWindow keeps a function warm this many minutes after
	// an actual invocation, covering forecast misses.
	PostInvocationWindow int
}

// DefaultHWConfig returns working defaults for minute-resolution traces.
func DefaultHWConfig() HWConfig {
	return HWConfig{
		Alpha:                0.3,
		Beta:                 0.05,
		Gamma:                0.2,
		SeasonLength:         24 * 60,
		ActivationThreshold:  0.5,
		PostInvocationWindow: 3,
	}
}

// validate checks the smoothing parameters, shared by NewHoltWinters and
// the MPC entrant (which grows its forecaster slot by slot instead of
// sizing it up front).
func (cfg HWConfig) validate() error {
	for name, v := range map[string]float64{"alpha": cfg.Alpha, "beta": cfg.Beta, "gamma": cfg.Gamma} {
		if v <= 0 || v >= 1 {
			return fmt.Errorf("predict: %s %v outside (0,1)", name, v)
		}
	}
	if cfg.SeasonLength < 2 {
		return fmt.Errorf("predict: season length %d too short", cfg.SeasonLength)
	}
	if cfg.ActivationThreshold <= 0 {
		return fmt.Errorf("predict: non-positive activation threshold %v", cfg.ActivationThreshold)
	}
	if cfg.PostInvocationWindow < 0 {
		return fmt.Errorf("predict: negative post-invocation window")
	}
	return nil
}

// NewHoltWinters builds the warmer for nFunctions functions.
func NewHoltWinters(nFunctions int, cfg HWConfig) (*HoltWinters, error) {
	if nFunctions <= 0 {
		return nil, fmt.Errorf("predict: need ≥1 function, got %d", nFunctions)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hw := &HoltWinters{cfg: cfg}
	for i := 0; i < nFunctions; i++ {
		hw.grow()
	}
	return hw, nil
}

// Name implements Warmer.
func (hw *HoltWinters) Name() string { return "holtwinters" }

// Record implements Warmer: one observation per function per minute.
func (hw *HoltWinters) Record(t, fn, count int) {
	if fn < 0 || fn >= len(hw.level) {
		return
	}
	if count > 0 {
		hw.lastInv[fn] = int32(t)
	}
	x := float64(count)
	cell := hw.cell(fn, t%hw.cfg.SeasonLength)
	if !hw.seen[fn] {
		hw.level[fn] = x
		*cell = 0
		hw.seen[fn] = true
		return
	}
	prevLevel := hw.level[fn]
	seas := *cell
	hw.level[fn] = hw.cfg.Alpha*(x-seas) + (1-hw.cfg.Alpha)*(prevLevel+hw.trend[fn])
	hw.trend[fn] = hw.cfg.Beta*(hw.level[fn]-prevLevel) + (1-hw.cfg.Beta)*hw.trend[fn]
	*cell = hw.cfg.Gamma*(x-hw.level[fn]) + (1-hw.cfg.Gamma)*seas
}

// Forecast returns the expected invocation count of fn at absolute minute
// t (clamped at zero), assuming observations have been recorded up to some
// minute before t.
func (hw *HoltWinters) Forecast(t, fn int) float64 {
	if fn < 0 || fn >= len(hw.level) || !hw.seen[fn] {
		return 0
	}
	v := hw.level[fn] + hw.trend[fn] + *hw.cell(fn, t%hw.cfg.SeasonLength)
	return math.Max(0, v)
}

// WantWarm implements Warmer.
func (hw *HoltWinters) WantWarm(t, fn int) bool {
	if fn < 0 || fn >= len(hw.level) {
		return false
	}
	if last := int(hw.lastInv[fn]); last >= 0 && t > last && t-last <= hw.cfg.PostInvocationWindow {
		return true
	}
	return hw.Forecast(t, fn) >= hw.cfg.ActivationThreshold
}
