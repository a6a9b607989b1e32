package core

import (
	"fmt"
	"math"

	"github.com/pulse-serverless/pulse/internal/stats"
)

// PriorMode selects how the prior keep-alive memory of Algorithm 1 is
// derived. PriorAlgorithm1 is the paper's rule; PriorNaive is the strawman
// the paper argues against (always the previous minute, even right after
// inactivity), kept for the ablation benchmark.
type PriorMode int

// Prior keep-alive memory modes.
const (
	PriorAlgorithm1 PriorMode = iota
	PriorNaive
)

// PeakDetector implements Algorithm 1: it decides, minute by minute,
// whether the current keep-alive memory constitutes a peak relative to a
// carefully chosen prior.
//
// The prior is the previous minute's keep-alive memory during continuous
// activity. At the first minute after a period of inactivity (previous
// keep-alive memory zero) the rule is the paper's: when the system has been
// operational for at least 2× the local window and the local-window average
// is positive, the prior is that average; otherwise it falls back to the
// last non-zero keep-alive memory ever observed, and to +Inf when there has
// never been one (nothing to peak against).
type PeakDetector struct {
	threshold   float64 // KM_T: fractional growth that constitutes a peak
	localWindow int
	window      *stats.RollingWindow
	prevKaM     float64
	lastNonZero float64
	elapsed     int // minutes recorded so far (the paper's T)
	mode        PriorMode
}

// NewPeakDetector creates a detector with keep-alive memory threshold
// KM_T (e.g. 0.10 for the paper's default 10%) and the sliding local
// window length in minutes.
func NewPeakDetector(threshold float64, localWindow int, mode PriorMode) (*PeakDetector, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("core: non-positive keep-alive memory threshold %v", threshold)
	}
	if localWindow <= 0 {
		return nil, fmt.Errorf("core: non-positive local window %d", localWindow)
	}
	return &PeakDetector{
		threshold:   threshold,
		localWindow: localWindow,
		window:      stats.NewRollingWindow(localWindow),
		prevKaM:     math.NaN(), // no prior minute yet
		lastNonZero: math.Inf(1),
		mode:        mode,
	}, nil
}

// PriorKaM returns the prior keep-alive memory to compare the current
// minute against, per Algorithm 1.
func (p *PeakDetector) PriorKaM() float64 {
	if p.elapsed == 0 {
		// System just started: nothing can be a peak yet.
		return math.Inf(1)
	}
	if p.mode == PriorNaive {
		return p.prevKaM
	}
	if p.prevKaM > 0 {
		// Continuous activity: previous minute's keep-alive memory.
		return p.prevKaM
	}
	// First minute after inactivity (previous keep-alive memory was zero).
	avg := p.window.Mean()
	if p.elapsed >= 2*p.localWindow && avg > 0 {
		return avg
	}
	// Fall back to the last non-zero keep-alive memory; +Inf if none ever.
	return p.lastNonZero
}

// IsPeak reports whether currentKaM would constitute a peak this minute:
// C_KaM > P_KaM + KM_T × P_KaM (Algorithm 1's ISPEAK).
func (p *PeakDetector) IsPeak(currentKaM float64) bool {
	prior := p.PriorKaM()
	if math.IsInf(prior, 1) {
		return false
	}
	return currentKaM > prior*(1+p.threshold)
}

// FlattenTarget returns the highest keep-alive memory that would not be a
// peak this minute (+Inf when nothing can be a peak). Algorithm 2's loop
// runs "while peak is not flattened", i.e. until the kept-alive memory is
// at or below this value.
func (p *PeakDetector) FlattenTarget() float64 {
	prior := p.PriorKaM()
	if math.IsInf(prior, 1) {
		return math.Inf(1)
	}
	return prior * (1 + p.threshold)
}

// Record commits the minute's final keep-alive memory (after any
// downgrades) and advances the detector's clock.
func (p *PeakDetector) Record(kamMB float64) error {
	if kamMB < 0 {
		return fmt.Errorf("core: negative keep-alive memory %v", kamMB)
	}
	p.window.Push(kamMB)
	p.prevKaM = kamMB
	if kamMB > 0 {
		p.lastNonZero = kamMB
	}
	p.elapsed++
	return nil
}

// Elapsed returns the number of recorded minutes.
func (p *PeakDetector) Elapsed() int { return p.elapsed }
