package predict

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
)

// StandalonePolicy wraps a Warmer into a cluster.Policy the way the
// original techniques deploy: whenever the warmer wants a function warm,
// the container holds the high-quality model ("the conventional practice of
// invoking high-quality models indiscriminately"), with no model-variant
// awareness and no memory constraint.
type StandalonePolicy struct {
	warmer     Warmer
	catalog    *models.Catalog
	assignment models.Assignment
	out        []int
}

// NewStandalonePolicy builds the variant-unaware wrapper.
func NewStandalonePolicy(w Warmer, cat *models.Catalog, asg models.Assignment) (*StandalonePolicy, error) {
	if w == nil {
		return nil, fmt.Errorf("predict: nil warmer")
	}
	if cat == nil {
		return nil, fmt.Errorf("predict: nil catalog")
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if err := asg.Validate(cat, len(asg)); err != nil {
		return nil, err
	}
	if len(asg) == 0 {
		return nil, fmt.Errorf("predict: empty assignment")
	}
	return &StandalonePolicy{
		warmer:     w,
		catalog:    cat,
		assignment: asg,
		out:        make([]int, len(asg)),
	}, nil
}

// Name implements cluster.Policy.
func (p *StandalonePolicy) Name() string { return p.warmer.Name() + "-standalone" }

// KeepAlive implements cluster.Policy.
func (p *StandalonePolicy) KeepAlive(t int) []int {
	for fn := range p.out {
		if p.warmer.WantWarm(t, fn) {
			p.out[fn] = p.catalog.Families[p.assignment[fn]].NumVariants() - 1
		} else {
			p.out[fn] = cluster.NoVariant
		}
	}
	return p.out
}

// ColdVariant implements cluster.Policy.
func (p *StandalonePolicy) ColdVariant(_, fn int) int {
	return p.catalog.Families[p.assignment[fn]].NumVariants() - 1
}

// RecordInvocations implements cluster.Policy.
func (p *StandalonePolicy) RecordInvocations(t int, counts []int) {
	for fn, c := range counts {
		p.warmer.Record(t, fn, c)
	}
}

// IntegratedPolicy is the Figure 8 configuration: the warmer's prediction
// decides *when* a function is warm ("this integration preserves Wild's
// predicted concurrency"), while PULSE's function-centric optimizer decides
// *which* variant fills the slot and PULSE's global optimizer enforces the
// keep-alive memory constraint the original techniques lack.
type IntegratedPolicy struct {
	warmer     Warmer
	catalog    *models.Catalog
	assignment models.Assignment
	window     int
	technique  core.ThresholdTechnique
	blend      core.HistoryBlend
	histories  []*core.History
	detector   *core.PeakDetector
	global     *core.GlobalOptimizer
	out        []int
	ip         []float64
}

// IntegratedConfig parameterizes the PULSE side of the integration. Zero
// values take PULSE defaults.
type IntegratedConfig struct {
	Window       int
	LocalWindow  int
	KaMThreshold float64
	Technique    core.ThresholdTechnique
	Blend        core.HistoryBlend
	Step         core.DowngradeStep
}

// NewIntegratedPolicy builds the warmer+PULSE hybrid.
func NewIntegratedPolicy(w Warmer, cat *models.Catalog, asg models.Assignment, cfg IntegratedConfig) (*IntegratedPolicy, error) {
	if w == nil {
		return nil, fmt.Errorf("predict: nil warmer")
	}
	if cat == nil {
		return nil, fmt.Errorf("predict: nil catalog")
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if err := asg.Validate(cat, len(asg)); err != nil {
		return nil, err
	}
	if len(asg) == 0 {
		return nil, fmt.Errorf("predict: empty assignment")
	}
	if cfg.Window <= 0 {
		cfg.Window = cluster.DefaultKeepAliveWindow
	}
	if cfg.LocalWindow <= 0 {
		cfg.LocalWindow = 60
	}
	if cfg.KaMThreshold <= 0 {
		cfg.KaMThreshold = 0.10
	}
	if cfg.Technique == nil {
		cfg.Technique = core.TechniqueT1{}
	}
	p := &IntegratedPolicy{
		warmer:     w,
		catalog:    cat,
		assignment: asg,
		window:     cfg.Window,
		technique:  cfg.Technique,
		blend:      cfg.Blend,
		histories:  make([]*core.History, len(asg)),
		out:        make([]int, len(asg)),
		ip:         make([]float64, len(asg)),
	}
	var err error
	for i := range p.histories {
		if p.histories[i], err = core.NewHistory(cfg.LocalWindow); err != nil {
			return nil, err
		}
	}
	if p.detector, err = core.NewPeakDetector(cfg.KaMThreshold, cfg.LocalWindow, core.PriorAlgorithm1); err != nil {
		return nil, err
	}
	if p.global, err = core.NewGlobalOptimizer(cat, asg, cfg.Step, false); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements cluster.Policy.
func (p *IntegratedPolicy) Name() string { return p.warmer.Name() + "+pulse" }

// KeepAlive implements cluster.Policy: the warmer gates which functions are
// warm; PULSE's probability thresholds choose the variant; Algorithm 1+2
// flatten memory peaks.
func (p *IntegratedPolicy) KeepAlive(t int) []int {
	for fn := range p.out {
		if !p.warmer.WantWarm(t, fn) {
			p.out[fn] = cluster.NoVariant
			p.ip[fn] = 0
			continue
		}
		h := p.histories[fn]
		prob := 0.0
		if last := h.LastInvocation(); last >= 0 && t > last && t-last <= p.window {
			prob = h.Probability(t-last, p.blend)
		}
		fam := p.catalog.Families[p.assignment[fn]]
		p.out[fn] = p.technique.Select(prob, fam.NumVariants())
		p.ip[fn] = prob
	}
	kam, err := p.global.KeptAliveMemoryMB(p.out)
	if err != nil {
		panic("predict: invalid integrated decisions: " + err.Error())
	}
	if p.detector.IsPeak(kam) {
		if _, err := p.global.Flatten(p.out, p.ip, p.detector.FlattenTarget()); err != nil {
			panic("predict: flatten: " + err.Error())
		}
		if kam, err = p.global.KeptAliveMemoryMB(p.out); err != nil {
			panic("predict: post-flatten memory: " + err.Error())
		}
	}
	if err := p.detector.Record(kam); err != nil {
		panic("predict: detector: " + err.Error())
	}
	return p.out
}

// ColdVariant implements cluster.Policy.
func (p *IntegratedPolicy) ColdVariant(_, fn int) int {
	return p.catalog.Families[p.assignment[fn]].NumVariants() - 1
}

// RecordInvocations implements cluster.Policy.
func (p *IntegratedPolicy) RecordInvocations(t int, counts []int) {
	for fn, c := range counts {
		p.warmer.Record(t, fn, c)
		if c > 0 {
			if err := p.histories[fn].Record(t); err != nil {
				panic("predict: history: " + err.Error())
			}
		}
	}
}
