package policy

import (
	"math"

	"github.com/pulse-serverless/pulse/internal/cluster"
)

// HawkesEntrant is a tournament shadow policy driven by a self-exciting
// Hawkes process ("Keep-Alive Caching for the Hawkes process"): every
// invocation burst raises the estimated arrival intensity, which then
// decays exponentially, so the keep-alive horizon stretches during flash
// crowds and collapses during quiet periods — a TTL that adapts to
// burstiness instead of being fixed.
//
// Per function the entrant tracks the excitation x and the minute t0 of
// its last update. The conditional intensity at minute m is
//
//	λ(m) = μ + x·e^(−β·(m−t0))
//
// and the probability of ≥1 arrival in the minute is p = 1 − e^(−λ). The
// family's highest variant is held warm exactly when the expected
// cold-start cost of dropping exceeds one minute of keep-alive:
// p·ColdCostMinutes ≥ 1. Expressing the cold-start penalty in keep-alive
// minutes of the same variant cancels the dollar rate, so the policy
// needs no catalog geometry.
//
// It implements the tournament.ShadowEntrant protocol: decisions at the
// open of each minute from history through the previous barrier, state
// updates only in Record — a pure function of the trace.
type HawkesEntrant struct {
	name string
	cfg  HawkesConfig
	// restHold is the decision for a never-excited slot: λ = μ there, so
	// the answer is a constant of the config.
	restHold bool

	x       []float64 // excitation as of t0, per slot
	t0      []int     // minute of the last excitation update, -1 before any
	highest []int     // highest variant index per slot
}

// HawkesConfig parameterizes the intensity estimate.
type HawkesConfig struct {
	// Mu is the baseline arrival intensity (events/minute).
	Mu float64
	// Alpha is the excitation each observed invocation adds.
	Alpha float64
	// Beta is the exponential decay rate of excitation (1/minutes).
	Beta float64
	// ColdCostMinutes expresses one cold start as this many minutes of
	// keep-alive for the same variant.
	ColdCostMinutes float64
}

// DefaultHawkesConfig returns working defaults for minute-resolution
// serverless traces: a near-zero base rate, strong self-excitation with a
// ~5-minute decay half-life, and the repo-wide 15-keep-alive-minutes cold
// start equivalence.
func DefaultHawkesConfig() HawkesConfig {
	return HawkesConfig{Mu: 0.001, Alpha: 0.4, Beta: 0.2, ColdCostMinutes: 15}
}

// NewHawkesEntrant builds the entrant. The zero-value config selects
// DefaultHawkesConfig.
func NewHawkesEntrant(name string, cfg HawkesConfig) *HawkesEntrant {
	if cfg == (HawkesConfig{}) {
		cfg = DefaultHawkesConfig()
	}
	h := &HawkesEntrant{name: name, cfg: cfg}
	h.restHold = h.holds(cfg.Mu)
	return h
}

// Name implements tournament.ShadowEntrant.
func (h *HawkesEntrant) Name() string { return h.name }

// Register implements tournament.ShadowEntrant.
func (h *HawkesEntrant) Register(fn, fam, numVariants int) {
	h.x = append(h.x, 0)
	h.t0 = append(h.t0, -1)
	h.highest = append(h.highest, numVariants-1)
}

// Retire implements tournament.ShadowEntrant: excitation resets to the
// never-invoked state.
func (h *HawkesEntrant) Retire(fn int) {
	h.x[fn] = 0
	h.t0[fn] = -1
}

// holds reports whether intensity lam makes dropping cost more, in expected
// cold start, than one minute of keep-alive.
func (h *HawkesEntrant) holds(lam float64) bool {
	p := 1 - math.Exp(-lam)
	return p*h.cfg.ColdCostMinutes >= 1
}

// KeepAlive implements tournament.ShadowEntrant.
func (h *HawkesEntrant) KeepAlive(m, fn int) int {
	hold := h.restHold
	if t0 := h.t0[fn]; t0 >= 0 {
		hold = h.holds(h.cfg.Mu + h.x[fn]*math.Exp(-h.cfg.Beta*float64(m-t0)))
	}
	if hold {
		return h.highest[fn]
	}
	return cluster.NoVariant
}

// Rests implements tournament.RestingEntrant. Excitation keeps the sign of
// Alpha, so with β ≥ 0 the intensity only moves monotonically toward μ
// between arrivals; holding is monotone in λ, so a slot that let go stays
// let go until its next invocation — unless μ alone holds (restHold), which
// also covers a never-invoked slot.
func (h *HawkesEntrant) Rests() bool { return !h.restHold && h.cfg.Beta >= 0 }

// Record implements tournament.ShadowEntrant: invocations excite the
// process at the minute barrier. Decay is applied lazily (the exponential
// kernel makes the deferred product exact), so idle minutes cost nothing.
func (h *HawkesEntrant) Record(m, fn, count int) {
	if count <= 0 {
		return
	}
	if h.t0[fn] >= 0 {
		h.x[fn] *= math.Exp(-h.cfg.Beta * float64(m-h.t0[fn]))
	}
	h.x[fn] += h.cfg.Alpha * float64(count)
	h.t0[fn] = m
}
