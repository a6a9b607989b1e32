package predict

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/stats"
)

// Warmer decides, per minute, whether a function's container should be
// warm. It is the prediction half of a warm-up strategy: the policy
// wrappers (policies.go) decide which model variant fills the warm slot.
type Warmer interface {
	// Name identifies the strategy in reports.
	Name() string
	// Record informs the warmer of count invocations of fn at minute t.
	Record(t, fn, count int)
	// WantWarm reports whether fn should be warm during minute t. It is
	// called with non-decreasing t.
	WantWarm(t, fn int) bool
}

// WildConfig parameterizes the Serverless-in-the-Wild warmer.
type WildConfig struct {
	// PreWarmPercentile and KeepAlivePercentile bound the warm window
	// around the histogram's inter-arrival distribution. Wild's defaults
	// are the 5th and 99th percentiles.
	PreWarmPercentile   float64
	KeepAlivePercentile float64
	// CVCutoff classifies a function's inter-arrival distribution as
	// heavy-tailed ("not representative"), routing it to the ARIMA path.
	// Wild uses an out-of-bounds/representativeness test; CV captures the
	// same heavy-tail property on our minute-resolution histograms.
	CVCutoff float64
	// MinObservations gates the histogram path; with fewer observations
	// the function falls back to a standard fixed keep-alive window.
	MinObservations int
	// FallbackWindow is the fixed keep-alive window (minutes) used before
	// enough history accumulates.
	FallbackWindow int
	// ARIMAHistory is how many recent inter-arrivals feed the ARIMA fit.
	ARIMAHistory int
	// ARIMAMargin widens the predicted-arrival warm window by ± this many
	// minutes.
	ARIMAMargin int
	// HistogramRange bounds the inter-arrival histogram in minutes (Wild
	// uses a 4-hour bounded histogram); larger gaps count as out-of-bounds
	// rather than entering the histogram.
	HistogramRange int
	// OOBFraction is the out-of-bounds share above which the histogram is
	// deemed unrepresentative and the function falls back to the fixed
	// window.
	OOBFraction float64
}

// DefaultWildConfig returns Wild's published defaults adapted to minute
// resolution.
func DefaultWildConfig() WildConfig {
	return WildConfig{
		PreWarmPercentile:   5,
		KeepAlivePercentile: 99,
		CVCutoff:            2.0,
		MinObservations:     10,
		FallbackWindow:      10,
		ARIMAHistory:        64,
		ARIMAMargin:         3,
		HistogramRange:      240,
		OOBFraction:         0.5,
	}
}

// Wild implements the hybrid-histogram warmer of Serverless in the Wild:
// per function it tracks the inter-arrival histogram; when the histogram is
// representative it releases the container right after an invocation and
// re-warms it from the pre-warm percentile until the keep-alive percentile
// of the inter-arrival distribution; heavy-tailed functions instead get an
// ARIMA(2,1,1) forecast of the next inter-arrival with a ± margin window.
type Wild struct {
	cfg    WildConfig
	hist   []*stats.IntHistogram
	oob    []int       // gaps beyond the bounded histogram range, per function
	gaps   [][]float64 // recent inter-arrival values per function (ARIMA input)
	last   []int       // last invocation minute per function, -1 before any
	warmLo []int       // current warm window [lo, hi] in absolute minutes
	warmHi []int
}

// NewWild builds the warmer for nFunctions functions.
func NewWild(nFunctions int, cfg WildConfig) (*Wild, error) {
	if nFunctions <= 0 {
		return nil, fmt.Errorf("predict: need ≥1 function, got %d", nFunctions)
	}
	if cfg.PreWarmPercentile < 0 || cfg.KeepAlivePercentile > 100 ||
		cfg.PreWarmPercentile >= cfg.KeepAlivePercentile {
		return nil, fmt.Errorf("predict: bad percentile window [%v, %v]",
			cfg.PreWarmPercentile, cfg.KeepAlivePercentile)
	}
	if cfg.FallbackWindow <= 0 {
		return nil, fmt.Errorf("predict: non-positive fallback window %d", cfg.FallbackWindow)
	}
	if cfg.MinObservations < 2 {
		return nil, fmt.Errorf("predict: MinObservations must be ≥ 2, got %d", cfg.MinObservations)
	}
	if cfg.HistogramRange <= 0 {
		return nil, fmt.Errorf("predict: non-positive histogram range %d", cfg.HistogramRange)
	}
	if cfg.OOBFraction <= 0 || cfg.OOBFraction > 1 {
		return nil, fmt.Errorf("predict: OOB fraction %v outside (0,1]", cfg.OOBFraction)
	}
	w := &Wild{
		cfg:    cfg,
		hist:   make([]*stats.IntHistogram, nFunctions),
		oob:    make([]int, nFunctions),
		gaps:   make([][]float64, nFunctions),
		last:   make([]int, nFunctions),
		warmLo: make([]int, nFunctions),
		warmHi: make([]int, nFunctions),
	}
	for i := range w.hist {
		w.hist[i] = stats.NewIntHistogram()
		w.last[i] = -1
		w.warmLo[i] = -1
		w.warmHi[i] = -1
	}
	return w, nil
}

// Name implements Warmer.
func (w *Wild) Name() string { return "wild" }

// Record implements Warmer: on each invocation the inter-arrival enters the
// histogram and the warm window for the next arrival is recomputed.
func (w *Wild) Record(t, fn, count int) {
	if count <= 0 || fn < 0 || fn >= len(w.hist) {
		return
	}
	if w.last[fn] >= 0 {
		gap := t - w.last[fn]
		if gap > 0 {
			if gap <= w.cfg.HistogramRange {
				// Gaps are positive by construction, so Add cannot fail.
				if err := w.hist[fn].Add(gap); err != nil {
					panic("predict: wild histogram: " + err.Error())
				}
			} else {
				w.oob[fn]++
			}
			w.gaps[fn] = append(w.gaps[fn], float64(gap))
			if len(w.gaps[fn]) > w.cfg.ARIMAHistory {
				w.gaps[fn] = w.gaps[fn][len(w.gaps[fn])-w.cfg.ARIMAHistory:]
			}
		}
	}
	w.last[fn] = t
	w.planWindow(t, fn)
}

// planWindow recomputes the warm window opened by an invocation at minute t.
func (w *Wild) planWindow(t, fn int) {
	h := w.hist[fn]
	oobShare := 0.0
	if n := h.Total() + w.oob[fn]; n > 0 {
		oobShare = float64(w.oob[fn]) / float64(n)
	}
	if h.Total() < w.cfg.MinObservations || oobShare > w.cfg.OOBFraction {
		// Not enough in-range history to be representative: standard
		// fixed keep-alive.
		w.warmLo[fn] = t + 1
		w.warmHi[fn] = t + w.cfg.FallbackWindow
		return
	}
	if h.CV() > w.cfg.CVCutoff {
		// Heavy-tailed: ARIMA forecast of the next inter-arrival.
		if next, ok := w.arimaNextGap(fn); ok {
			lo := t + next - w.cfg.ARIMAMargin
			if lo < t+1 {
				lo = t + 1
			}
			w.warmLo[fn] = lo
			w.warmHi[fn] = t + next + w.cfg.ARIMAMargin
			return
		}
		// Fit failed (e.g. constant history): fall through to percentiles.
	}
	lo, err := h.Percentile(w.cfg.PreWarmPercentile)
	if err != nil {
		lo = 1
	}
	hi, err := h.Percentile(w.cfg.KeepAlivePercentile)
	if err != nil {
		hi = w.cfg.FallbackWindow
	}
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	w.warmLo[fn] = t + lo
	w.warmHi[fn] = t + hi
}

// arimaNextGap forecasts the next inter-arrival gap with ARIMA(2,1,1).
func (w *Wild) arimaNextGap(fn int) (int, bool) {
	series := w.gaps[fn]
	m, err := FitARIMA(series, 2, 1, 1)
	if err != nil {
		return 0, false
	}
	fc, err := m.Forecast(1)
	if err != nil || len(fc) != 1 {
		return 0, false
	}
	next := int(fc[0] + 0.5)
	if next < 1 {
		next = 1
	}
	return next, true
}

// WantWarm implements Warmer.
func (w *Wild) WantWarm(t, fn int) bool {
	if fn < 0 || fn >= len(w.warmLo) || w.warmLo[fn] < 0 {
		return false
	}
	return t >= w.warmLo[fn] && t <= w.warmHi[fn]
}
