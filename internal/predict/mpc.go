package predict

import (
	"fmt"
	"math"

	"github.com/pulse-serverless/pulse/internal/cluster"
)

// MPCEntrant is a tournament shadow policy doing receding-horizon model
// predictive control ("Taming Cold Starts: Proactive Serverless Scheduling
// with Model Predictive Control"): each minute it rolls a Holt-Winters
// forecast of per-minute arrivals forward over the next Horizon minutes
// and keeps the family's highest variant warm exactly when some prefix of
// the horizon is cheaper warm than cold, i.e. when there exists k ≤ Horizon
// with
//
//	k < ColdCostMinutes · Σ_{j=0}^{k−1} (1 − e^(−λ̂(m+j)))
//
// where λ̂ is the forecast arrival rate and 1 − e^(−λ̂) the probability of
// ≥1 arrival in the minute. Pricing the cold start in keep-alive minutes
// of the same variant cancels the dollar rate, so only the forecaster and
// two scalars parameterize the controller. Only the first decision of
// each optimized horizon is executed; the plan is re-derived at the next
// minute as new observations arrive — the receding-horizon discipline.
//
// It implements the tournament.ShadowEntrant protocol: forecasts advance
// only in Record, at the minute barrier, so decisions are a pure function
// of the trace.
type MPCEntrant struct {
	name string
	cfg  MPCConfig
	hw   *HoltWinters

	highest []int
}

// MPCConfig parameterizes the controller.
type MPCConfig struct {
	// HW parameterizes the Holt-Winters forecaster (zero value:
	// DefaultHWConfig).
	HW HWConfig
	// Horizon is the receding optimization horizon in minutes (default 10).
	Horizon int
	// ColdCostMinutes expresses one cold start as this many minutes of
	// keep-alive for the family's highest variant (default 15).
	ColdCostMinutes float64
}

// DefaultMPCConfig returns working defaults.
func DefaultMPCConfig() MPCConfig {
	return MPCConfig{HW: DefaultHWConfig(), Horizon: 10, ColdCostMinutes: 15}
}

// NewMPCEntrant builds the entrant. The zero-value config selects
// DefaultMPCConfig. Function slots are added via Register, so the
// forecaster starts empty and grows with the population.
func NewMPCEntrant(name string, cfg MPCConfig) (*MPCEntrant, error) {
	if cfg.Horizon == 0 && cfg.ColdCostMinutes == 0 && cfg.HW == (HWConfig{}) {
		cfg = DefaultMPCConfig()
	}
	if cfg.HW == (HWConfig{}) {
		cfg.HW = DefaultHWConfig()
	}
	if err := cfg.HW.validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("predict: non-positive MPC horizon %d", cfg.Horizon)
	}
	if cfg.ColdCostMinutes <= 0 {
		return nil, fmt.Errorf("predict: non-positive MPC cold-start cost %v", cfg.ColdCostMinutes)
	}
	return &MPCEntrant{
		name: name,
		cfg:  cfg,
		hw:   &HoltWinters{cfg: cfg.HW},
	}, nil
}

// Name implements tournament.ShadowEntrant.
func (e *MPCEntrant) Name() string { return e.name }

// Register implements tournament.ShadowEntrant: grow one forecaster slot.
func (e *MPCEntrant) Register(fn, fam, numVariants int) {
	e.highest = append(e.highest, numVariants-1)
	e.hw.grow()
}

// Retire implements tournament.ShadowEntrant: the slot's forecaster state
// resets to never-observed. The seasonal cells are left as they are: slots
// are append-only and a retired one is never consulted or fed again, and
// clearing them would be a SeasonLength-cache-line strided sweep inside the
// exclusive lifecycle window.
func (e *MPCEntrant) Retire(fn int) {
	e.hw.level[fn] = 0
	e.hw.trend[fn] = 0
	e.hw.seen[fn] = false
	e.hw.lastInv[fn] = -1
}

// KeepAlive implements tournament.ShadowEntrant: solve the horizon and
// execute its first decision. Two fast paths keep the arena's per-slot
// consult cheap without changing a bit of the result: a slot that has never
// been invoked has only ever recorded zero counts, and all-zero level, trend
// and season is an exact fixed point of the smoother under zero input, so it
// forecasts 0 at every offset and the horizon cannot pay for itself; and a
// forecast clamped to exactly 0 adds 1 − e^0 = 0 to cum, so the exponential
// is skipped. The loop is Forecast(m+j, fn) with level+trend hoisted (the
// same left-to-right sum); its seasonal cells are consecutive rows of the
// slot's block, so ascending fn reads Horizon sequential streams.
func (e *MPCEntrant) KeepAlive(m, fn int) int {
	hw := e.hw
	if hw.lastInv[fn] < 0 {
		return cluster.NoVariant
	}
	base := hw.level[fn] + hw.trend[fn]
	si := m % hw.cfg.SeasonLength
	cum := 0.0
	for j := 0; j < e.cfg.Horizon; j++ {
		if lam := base + *hw.cell(fn, si); lam > 0 {
			cum += 1 - math.Exp(-lam)
		}
		if float64(j+1) < e.cfg.ColdCostMinutes*cum {
			return e.highest[fn]
		}
		if si++; si == hw.cfg.SeasonLength {
			si = 0
		}
	}
	return cluster.NoVariant
}

// Record implements tournament.ShadowEntrant: one forecaster observation
// per function per minute, at the barrier.
func (e *MPCEntrant) Record(m, fn, count int) {
	e.hw.Record(m, fn, count)
}
