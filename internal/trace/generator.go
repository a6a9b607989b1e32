package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Archetype generates one function's invocation series. Implementations
// must be deterministic given the supplied RNG.
type Archetype interface {
	// Name identifies the archetype in reports and CSV output.
	Name() string
	// Generate fills a fresh count series of the given horizon.
	Generate(rng *rand.Rand, horizon int) []int
}

// Periodic invokes roughly every Period minutes with ±Jitter minutes of
// uniform noise — the "consistent pattern of invocations" case the paper's
// Algorithm 1 contrasts with inactive periods.
type Periodic struct {
	Period int // minutes between invocations (≥ 1)
	Jitter int // max absolute jitter in minutes (≥ 0)
}

// Name implements Archetype.
func (p Periodic) Name() string { return fmt.Sprintf("periodic(p=%d,j=%d)", p.Period, p.Jitter) }

// Generate implements Archetype.
func (p Periodic) Generate(rng *rand.Rand, horizon int) []int {
	counts := make([]int, horizon)
	period := p.Period
	if period < 1 {
		period = 1
	}
	for t := period; t < horizon; t += period {
		j := 0
		if p.Jitter > 0 {
			j = rng.Intn(2*p.Jitter+1) - p.Jitter
		}
		at := t + j
		if at >= 0 && at < horizon {
			counts[at]++
		}
	}
	return counts
}

// Poisson invokes with a constant rate (expected invocations per minute).
type Poisson struct {
	Rate float64 // expected invocations per minute (≥ 0)
}

// Name implements Archetype.
func (p Poisson) Name() string { return fmt.Sprintf("poisson(rate=%.3f)", p.Rate) }

// Generate implements Archetype.
func (p Poisson) Generate(rng *rand.Rand, horizon int) []int {
	counts := make([]int, horizon)
	for t := range counts {
		counts[t] = samplePoisson(rng, p.Rate)
	}
	return counts
}

// Diurnal is a non-homogeneous Poisson process whose rate follows a daily
// sinusoid: rate(t) = Base + Amplitude·max(0, cos(2π(t−PeakMinute)/1440)).
// With PeakMinute near midday this is a "diurnal" function; shifting the
// peak 12 h produces the paper's "nocturnal" functions.
type Diurnal struct {
	Base       float64 // floor rate, invocations per minute
	Amplitude  float64 // additional rate at the daily peak
	PeakMinute int     // minute-of-day of the peak (0..1439)
}

// Name implements Archetype.
func (d Diurnal) Name() string {
	return fmt.Sprintf("diurnal(base=%.3f,amp=%.3f,peak=%d)", d.Base, d.Amplitude, d.PeakMinute)
}

// Generate implements Archetype.
func (d Diurnal) Generate(rng *rand.Rand, horizon int) []int {
	counts := make([]int, horizon)
	for t := range counts {
		phase := 2 * math.Pi * float64((t-d.PeakMinute)%MinutesPerDay) / MinutesPerDay
		rate := d.Base + d.Amplitude*math.Max(0, math.Cos(phase))
		counts[t] = samplePoisson(rng, rate)
	}
	return counts
}

// Bursty produces quiet stretches punctuated by short intense bursts; burst
// starts arrive as a Poisson process. This archetype is what creates the
// sudden cumulative invocation peaks of Tables II/III.
type Bursty struct {
	BurstsPerDay float64 // expected bursts per day
	BurstLen     int     // burst duration in minutes (≥ 1)
	BurstRate    float64 // invocations per minute inside a burst
	QuietRate    float64 // invocations per minute outside bursts
}

// Name implements Archetype.
func (b Bursty) Name() string {
	return fmt.Sprintf("bursty(n/day=%.1f,len=%d,rate=%.2f)", b.BurstsPerDay, b.BurstLen, b.BurstRate)
}

// Generate implements Archetype.
func (b Bursty) Generate(rng *rand.Rand, horizon int) []int {
	counts := make([]int, horizon)
	burstLen := b.BurstLen
	if burstLen < 1 {
		burstLen = 1
	}
	startProb := b.BurstsPerDay / MinutesPerDay
	inBurst := 0
	for t := range counts {
		if inBurst > 0 {
			counts[t] = samplePoisson(rng, b.BurstRate)
			inBurst--
			continue
		}
		if rng.Float64() < startProb {
			inBurst = burstLen - 1
			counts[t] = samplePoisson(rng, b.BurstRate)
			continue
		}
		counts[t] = samplePoisson(rng, b.QuietRate)
	}
	return counts
}

// HeavyTailed draws inter-arrival gaps from a Pareto distribution (heavy
// tail), the distribution class for which Serverless-in-the-Wild falls back
// to its ARIMA path.
type HeavyTailed struct {
	Alpha float64 // Pareto shape (> 0; smaller = heavier tail)
	Scale float64 // minimum gap in minutes (> 0)
}

// Name implements Archetype.
func (h HeavyTailed) Name() string {
	return fmt.Sprintf("heavytail(alpha=%.2f,scale=%.1f)", h.Alpha, h.Scale)
}

// Generate implements Archetype.
func (h HeavyTailed) Generate(rng *rand.Rand, horizon int) []int {
	counts := make([]int, horizon)
	alpha := h.Alpha
	if alpha <= 0 {
		alpha = 1.1
	}
	scale := h.Scale
	if scale <= 0 {
		scale = 1
	}
	t := 0.0
	for {
		gap := scale / math.Pow(1-rng.Float64(), 1/alpha) // Pareto(alpha, scale)
		t += gap
		at := int(t)
		if at >= horizon {
			break
		}
		counts[at]++
	}
	return counts
}

// Sporadic is a very low, irregular rate: long inactivity followed by a
// lone invocation — the case Algorithm 1's "last non-zero keep-alive
// memory" fallback exists for.
type Sporadic struct {
	MeanGap int // mean minutes between invocations (≥ 1)
}

// Name implements Archetype.
func (s Sporadic) Name() string { return fmt.Sprintf("sporadic(gap=%d)", s.MeanGap) }

// Generate implements Archetype.
func (s Sporadic) Generate(rng *rand.Rand, horizon int) []int {
	counts := make([]int, horizon)
	mean := float64(s.MeanGap)
	if mean < 1 {
		mean = 1
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() * mean
		at := int(t)
		if at >= horizon {
			break
		}
		counts[at]++
	}
	return counts
}

// Drifting switches between phases across the horizon — Figure 2's
// "different inter-arrival time patterns across different periods for the
// same function". Each phase occupies an equal share of the horizon.
type Drifting struct {
	Phases []Archetype
}

// Name implements Archetype.
func (d Drifting) Name() string {
	return fmt.Sprintf("drifting(%d phases)", len(d.Phases))
}

// Generate implements Archetype.
func (d Drifting) Generate(rng *rand.Rand, horizon int) []int {
	counts := make([]int, horizon)
	if len(d.Phases) == 0 {
		return counts
	}
	per := horizon / len(d.Phases)
	if per == 0 {
		per = horizon
	}
	for i, phase := range d.Phases {
		start := i * per
		end := start + per
		if i == len(d.Phases)-1 || end > horizon {
			end = horizon
		}
		if start >= horizon {
			break
		}
		sub := phase.Generate(rng, end-start)
		copy(counts[start:end], sub)
	}
	return counts
}

// samplePoisson draws from Poisson(lambda) using Knuth's method for small
// rates and a normal approximation above 30 (adequate for workload
// synthesis; exactness there is immaterial).
func samplePoisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// GeneratorConfig configures Generate.
type GeneratorConfig struct {
	Seed       int64
	Horizon    int         // minutes; defaults to 14 days if ≤ 0
	Archetypes []Archetype // one function generated per entry; defaults to AzureLikeArchetypes

	// Churn, when in (0, 1], is the probability that a function (other than
	// the first, which always spans the whole trace) gets a partial
	// lifetime: a late registration, an early deregistration, or both.
	// Lifetimes are drawn from the per-function RNG after the invocation
	// series, so Churn == 0 reproduces the pre-churn trace bit for bit and
	// the invocation patterns inside a lifetime are unchanged by churn.
	Churn float64
}

// AzureLikeArchetypes returns the default mix of 12 function behaviours
// standing in for the paper's 12 Azure-trace functions: periodic at several
// scales, diurnal and nocturnal, bursty, heavy-tailed, sporadic, steady,
// and drifting.
func AzureLikeArchetypes() []Archetype {
	return []Archetype{
		Periodic{Period: 3, Jitter: 1},
		Periodic{Period: 8, Jitter: 2},
		Periodic{Period: 15, Jitter: 3},
		Poisson{Rate: 0.30},
		Poisson{Rate: 0.08},
		Diurnal{Base: 0.02, Amplitude: 0.6, PeakMinute: 13 * 60},
		Diurnal{Base: 0.02, Amplitude: 0.5, PeakMinute: 1 * 60}, // nocturnal
		Bursty{BurstsPerDay: 3, BurstLen: 6, BurstRate: 4, QuietRate: 0.01},
		Bursty{BurstsPerDay: 1.5, BurstLen: 10, BurstRate: 6, QuietRate: 0.005},
		HeavyTailed{Alpha: 1.3, Scale: 2},
		Sporadic{MeanGap: 180},
		Drifting{Phases: []Archetype{
			Periodic{Period: 4, Jitter: 1},
			Sporadic{MeanGap: 45},
			Bursty{BurstsPerDay: 4, BurstLen: 5, BurstRate: 3, QuietRate: 0.01},
		}},
	}
}

// Generate builds a synthetic trace. Each function gets an independent RNG
// derived from the master seed, so adding or reordering archetypes does not
// perturb the others.
func Generate(cfg GeneratorConfig) (*Trace, error) {
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 14 * MinutesPerDay
	}
	arch := cfg.Archetypes
	if len(arch) == 0 {
		arch = AzureLikeArchetypes()
	}
	if cfg.Churn < 0 || cfg.Churn > 1 {
		return nil, fmt.Errorf("trace: churn probability %v outside [0, 1]", cfg.Churn)
	}
	if horizon > maxCells/len(arch) {
		return nil, fmt.Errorf("trace: %d functions of horizon %d exceed %d counts", len(arch), horizon, maxCells)
	}
	tr := &Trace{Horizon: horizon, Functions: make([]Function, len(arch))}
	for i, a := range arch {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*1_000_003))
		counts := a.Generate(rng, horizon)
		if len(counts) != horizon {
			return nil, fmt.Errorf("trace: archetype %q generated %d minutes, want %d", a.Name(), len(counts), horizon)
		}
		tr.Functions[i] = Function{
			ID:        i,
			Name:      fmt.Sprintf("fn-%02d", i),
			Archetype: a.Name(),
			Counts:    counts,
		}
		quarter := horizon / 4
		if cfg.Churn > 0 && i > 0 && quarter > 0 && rng.Float64() < cfg.Churn {
			start, end := 0, 0
			switch rng.Intn(3) {
			case 0: // late registration
				start = quarter + rng.Intn(quarter)
			case 1: // early deregistration
				end = horizon - quarter - rng.Intn(quarter)
			default: // mid-trace lifetime window
				start = 1 + rng.Intn(quarter)
				end = horizon - 1 - rng.Intn(quarter)
			}
			tr.Functions[i].SetLifecycle(start, end)
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
