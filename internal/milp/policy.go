package milp

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
)

// PolicyConfig parameterizes the MILP keep-alive policy.
type PolicyConfig struct {
	Catalog    *models.Catalog
	Assignment models.Assignment
	// Window is the keep-alive period (default 10 minutes): functions stay
	// candidates for keep-alive within this window after an invocation.
	Window int
	// LocalWindow feeds the inter-arrival histories (default 60).
	LocalWindow int
	// MemoryBudgetMB is the strict memory budget the program is solved
	// under. ≤ 0 defaults to 60% of the all-highest-variant footprint.
	MemoryBudgetMB float64
	// Blend selects the probability history mix (default: both, as PULSE).
	Blend core.HistoryBlend
}

// Policy is the MILP alternative to PULSE: every minute it solves, exactly,
// "maximize overall utility value subject to a strict memory budget
// constraint" over all candidate models and their variants. Per the paper
// it lacks PULSE's iterative adaptability (no priority structure evolving
// through downgrades), and because the lowest variant's utility term
// carries its full accuracy (Algorithm 2's Ai definition), the optimizer
// systematically favors low-quality variants — the accuracy gap Figure 9(b)
// reports.
type Policy struct {
	cfg       PolicyConfig
	histories []*core.History
	out       []int
	groups    []Group
	groupFns  []int // group index → function index
}

// NewPolicy builds the MILP policy.
func NewPolicy(cfg PolicyConfig) (*Policy, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("milp: nil catalog")
	}
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assignment.Validate(cfg.Catalog, len(cfg.Assignment)); err != nil {
		return nil, err
	}
	if len(cfg.Assignment) == 0 {
		return nil, fmt.Errorf("milp: empty assignment")
	}
	if cfg.Window <= 0 {
		cfg.Window = cluster.DefaultKeepAliveWindow
	}
	if cfg.LocalWindow <= 0 {
		cfg.LocalWindow = 60
	}
	if cfg.MemoryBudgetMB <= 0 {
		var total float64
		for _, fam := range cfg.Assignment {
			total += cfg.Catalog.Families[fam].Highest().MemoryMB
		}
		cfg.MemoryBudgetMB = 0.6 * total
	}
	p := &Policy{
		cfg:       cfg,
		histories: make([]*core.History, len(cfg.Assignment)),
		out:       make([]int, len(cfg.Assignment)),
	}
	var err error
	for i := range p.histories {
		if p.histories[i], err = core.NewHistory(cfg.LocalWindow); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Name implements cluster.Policy.
func (p *Policy) Name() string { return "milp" }

// KeepAlive implements cluster.Policy by solving the per-minute MCKP.
func (p *Policy) KeepAlive(t int) []int {
	p.groups = p.groups[:0]
	p.groupFns = p.groupFns[:0]
	for fn := range p.out {
		p.out[fn] = cluster.NoVariant
		h := p.histories[fn]
		last := h.LastInvocation()
		if last < 0 || t <= last || t-last > p.cfg.Window {
			continue // not a keep-alive candidate this minute
		}
		ip := h.Probability(t-last, p.cfg.Blend)
		fam := p.cfg.Catalog.Families[p.cfg.Assignment[fn]]
		items := make([]Item, fam.NumVariants())
		for vi := range items {
			ai, err := fam.AccuracyImprovement(vi)
			if err != nil {
				panic("milp: accuracy improvement: " + err.Error())
			}
			items[vi] = Item{Value: ai + ip, Weight: fam.Variants[vi].MemoryMB}
		}
		p.groups = append(p.groups, Group{Items: items})
		p.groupFns = append(p.groupFns, fn)
	}
	if len(p.groups) == 0 {
		return p.out
	}
	// Generic MILP machinery and its overhead: the faithful Figure 9
	// comparator.
	sol, err := SolveGeneric(p.groups, p.cfg.MemoryBudgetMB)
	if err != nil {
		panic("milp: solve: " + err.Error())
	}
	for gi, choice := range sol.Choice {
		p.out[p.groupFns[gi]] = choice // -1 maps to NoVariant
	}
	return p.out
}

// ColdVariant implements cluster.Policy.
func (p *Policy) ColdVariant(_, fn int) int {
	return p.cfg.Catalog.Families[p.cfg.Assignment[fn]].NumVariants() - 1
}

// RecordInvocations implements cluster.Policy.
func (p *Policy) RecordInvocations(t int, counts []int) {
	for fn, c := range counts {
		if c > 0 {
			if err := p.histories[fn].Record(t); err != nil {
				panic("milp: history: " + err.Error())
			}
		}
	}
}
