package models

import (
	"fmt"
	"math"
	"math/rand"
)

// LambdaSim simulates a single AWS-Lambda-style function hosting one model
// variant, reproducing the behaviours the paper's characterization protocol
// exploits: the first invocation after container creation is cold, changing
// the configured memory size tears the container down (forcing a cold start
// on the next invocation), and subsequent invocations are warm.
//
// Observed latencies carry multiplicative log-normal noise, the shape
// measured latencies exhibit on real FaaS platforms.
type LambdaSim struct {
	variant    Variant
	memorySize float64 // configured Lambda memory, MB
	warm       bool
	rng        *rand.Rand
	noiseSigma float64
}

// NewLambdaSim creates a simulator for the given variant. Per the paper's
// methodology the configured Lambda memory is "twice the size of the ECR
// image", which we approximate as twice the variant's memory footprint.
// noiseSigma sets the log-normal noise scale (0 disables noise).
func NewLambdaSim(v Variant, seed int64, noiseSigma float64) (*LambdaSim, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if noiseSigma < 0 {
		return nil, fmt.Errorf("models: negative noise sigma %v", noiseSigma)
	}
	return &LambdaSim{
		variant:    v,
		memorySize: 2 * v.MemoryMB,
		rng:        rand.New(rand.NewSource(seed)),
		noiseSigma: noiseSigma,
	}, nil
}

// Invoke runs one invocation and returns the observed service time in
// seconds and whether it was a cold start.
func (l *LambdaSim) Invoke() (serviceSec float64, cold bool) {
	cold = !l.warm
	l.warm = true
	base := l.variant.ExecSec
	if cold {
		base = l.variant.ColdServiceSec()
	}
	return base * l.noise(), cold
}

// SetMemorySize changes the configured memory. Any change destroys the
// running container, so the next invocation is cold — the trick the paper
// uses to measure cold-start service times on demand.
func (l *LambdaSim) SetMemorySize(mb float64) error {
	if mb <= 0 {
		return fmt.Errorf("models: non-positive memory size %v", mb)
	}
	if mb != l.memorySize {
		l.memorySize = mb
		l.warm = false
	}
	return nil
}

// MemorySize returns the configured memory size in MB.
func (l *LambdaSim) MemorySize() float64 { return l.memorySize }

func (l *LambdaSim) noise() float64 {
	if l.noiseSigma == 0 {
		return 1
	}
	return math.Exp(l.rng.NormFloat64() * l.noiseSigma)
}

// Characterization holds the measured profile of one variant — a Table I
// row as this repository regenerates it.
type Characterization struct {
	Variant               string
	MeanWarmSec           float64
	MeanColdSec           float64
	AccuracyPct           float64
	MemoryMB              float64
	KeepAliveCentsPerHour float64 // at the given cost rate
	WarmSamples           int
	ColdSamples           int
}

// Characterize reproduces the paper's measurement protocol against the
// simulator:
//
//   - warm path: "a dummy run followed by 1000 consecutive runs" whose
//     latencies are averaged;
//   - cold path: repeatedly toggle the memory size ("adjusted the memory
//     size of the function to an arbitrary value, conducted a dummy
//     invocation, and subsequently reverted the memory size"), measuring
//     the cold invocation that follows each toggle.
//
// centsPerMBHour converts the variant's footprint into the keep-alive cost
// column.
func Characterize(v Variant, seed int64, noiseSigma float64, warmRuns, coldRuns int, centsPerMBHour float64) (Characterization, error) {
	if warmRuns <= 0 || coldRuns <= 0 {
		return Characterization{}, fmt.Errorf("models: need positive run counts, got warm=%d cold=%d", warmRuns, coldRuns)
	}
	sim, err := NewLambdaSim(v, seed, noiseSigma)
	if err != nil {
		return Characterization{}, err
	}
	ch := Characterization{
		Variant:               v.Name,
		AccuracyPct:           v.AccuracyPct,
		MemoryMB:              v.MemoryMB,
		KeepAliveCentsPerHour: v.MemoryMB * centsPerMBHour,
	}
	// Dummy run to warm the container, then the consecutive warm runs.
	if _, cold := sim.Invoke(); !cold {
		return Characterization{}, fmt.Errorf("models: fresh simulator should cold start")
	}
	var warmSum float64
	for i := 0; i < warmRuns; i++ {
		s, cold := sim.Invoke()
		if cold {
			return Characterization{}, fmt.Errorf("models: unexpected cold start during warm characterization")
		}
		warmSum += s
	}
	ch.MeanWarmSec = warmSum / float64(warmRuns)
	ch.WarmSamples = warmRuns

	orig := sim.MemorySize()
	var coldSum float64
	for i := 0; i < coldRuns; i++ {
		// Toggle memory to kill the container, dummy-invoke, revert, then
		// measure the cold invocation.
		if err := sim.SetMemorySize(orig + 64); err != nil {
			return Characterization{}, err
		}
		if _, cold := sim.Invoke(); !cold {
			return Characterization{}, fmt.Errorf("models: memory change did not force cold start")
		}
		if err := sim.SetMemorySize(orig); err != nil {
			return Characterization{}, err
		}
		s, cold := sim.Invoke()
		if !cold {
			return Characterization{}, fmt.Errorf("models: reverting memory did not force cold start")
		}
		coldSum += s
	}
	ch.MeanColdSec = coldSum / float64(coldRuns)
	ch.ColdSamples = coldRuns
	return ch, nil
}

// CharacterizeCatalog characterizes every variant in the catalog,
// regenerating Table I. Results are returned family by family in catalog
// order.
func CharacterizeCatalog(c *Catalog, seed int64, noiseSigma float64, warmRuns, coldRuns int, centsPerMBHour float64) ([]Characterization, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var out []Characterization
	for fi := range c.Families {
		for vi, v := range c.Families[fi].Variants {
			ch, err := Characterize(v, seed+int64(fi*100+vi), noiseSigma, warmRuns, coldRuns, centsPerMBHour)
			if err != nil {
				return nil, err
			}
			out = append(out, ch)
		}
	}
	return out, nil
}

// DefaultCentsPerMBHour is the keep-alive cost rate implied by Table I
// (anchored at GPT-Large: 41.71 ¢/h for 3500 MB).
const DefaultCentsPerMBHour = 41.71 / 3500
