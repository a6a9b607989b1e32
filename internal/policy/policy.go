// Package policy implements the baseline keep-alive policies PULSE is
// evaluated against: the OpenWhisk-style fixed 10-minute policy (all-high
// and all-low variants), the random high/low mix, and the look-ahead
// "intelligent solution" of the paper's motivation study (Tables II/III).
package policy

import (
	"fmt"
	"math/rand"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// base carries the state shared by every fixed-window baseline: which
// family each function serves, the minute of each function's last
// invocation, and the identity registry that lets functions register and
// deregister while a run is in flight. Per-function slices are indexed by
// registry slot and append-only: a deregistered slot keeps its entries but
// resets lastInv to -1, which is exactly the never-invoked state, so the
// keep-alive scans need no liveness branch.
type base struct {
	catalog    *models.Catalog
	assignment models.Assignment
	window     int
	reg        *identity.Registry
	lastInv    []int // minute of last invocation per slot, -1 before any
	out        []int // reused decision buffer
}

// newBaseNamed builds the shared baseline state with explicit function
// names (nil selects fn-0 … fn-{n-1}).
func newBaseNamed(cat *models.Catalog, asg models.Assignment, window int, names []string) (*base, error) {
	if cat == nil {
		return nil, fmt.Errorf("policy: nil catalog")
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if err := asg.Validate(cat, len(asg)); err != nil {
		return nil, err
	}
	if len(asg) == 0 {
		return nil, fmt.Errorf("policy: empty assignment")
	}
	if names == nil {
		names = identity.DefaultNames(len(asg))
	}
	if len(names) != len(asg) {
		return nil, fmt.Errorf("policy: %d names for %d functions", len(names), len(asg))
	}
	reg, err := identity.NewRegistry(names)
	if err != nil {
		return nil, err
	}
	if window <= 0 {
		window = cluster.DefaultKeepAliveWindow
	}
	b := &base{
		catalog:    cat,
		assignment: append(models.Assignment(nil), asg...),
		window:     window,
		reg:        reg,
		lastInv:    make([]int, len(asg)),
		out:        make([]int, len(asg)),
	}
	for i := range b.lastInv {
		b.lastInv[i] = -1
	}
	return b, nil
}

// RegisterFunction implements cluster.DynamicPolicy: the named function
// gets the next slot with empty history, so it behaves like a never-invoked
// function (cold) until its first recorded invocations.
func (b *base) RegisterFunction(name string, family int) (int, error) {
	if family < 0 || family >= len(b.catalog.Families) {
		return 0, fmt.Errorf("policy: family %d out of range for %q", family, name)
	}
	slot, err := b.reg.Register(name)
	if err != nil {
		return 0, err
	}
	b.assignment = append(b.assignment, family)
	b.lastInv = append(b.lastInv, -1)
	b.out = append(b.out, cluster.NoVariant)
	return slot, nil
}

// DeregisterFunction implements cluster.DynamicPolicy: the slot is
// tombstoned and its last-invocation mark reset, which closes any open
// keep-alive window immediately.
func (b *base) DeregisterFunction(name string) error {
	slot, err := b.reg.Deregister(name)
	if err != nil {
		return err
	}
	b.lastInv[slot] = -1
	return nil
}

func (b *base) family(fn int) *models.Family {
	return &b.catalog.Families[b.assignment[fn]]
}

// withinWindow reports whether minute t falls inside the keep-alive window
// opened by the function's last invocation: an invocation at minute m keeps
// the container alive through minute m+window, so an arrival at m+window is
// still warm (the paper's "invocation in the 2nd minute … active until the
// 12th minute").
func (b *base) withinWindow(t, fn int) bool {
	last := b.lastInv[fn]
	return last >= 0 && t <= last+b.window
}

func (b *base) recordInvocations(t int, counts []int) {
	active := b.reg.ActiveSlice()
	for fn, c := range counts {
		if c > 0 && active[fn] {
			b.lastInv[fn] = t
		}
	}
}

// Fixed is the OpenWhisk-style fixed keep-alive policy: after every
// invocation the container holding one fixed quality variant stays alive
// for the full window. With Quality = QualityHighest this is the paper's
// competing baseline ("All High Quality"); with QualityLowest it is the
// "All Low Quality" row of Tables II/III.
type Fixed struct {
	*base
	quality Quality
	name    string
}

// Quality selects which variant a single-quality policy pins.
type Quality int

// Quality levels for Fixed and the random mixer.
const (
	QualityLowest Quality = iota
	QualityHighest
)

func (q Quality) variantIndex(f *models.Family) int {
	if q == QualityLowest {
		return 0
	}
	return f.NumVariants() - 1
}

// NewFixed builds a fixed keep-alive policy. window ≤ 0 selects the default
// 10 minutes.
func NewFixed(cat *models.Catalog, asg models.Assignment, window int, q Quality) (*Fixed, error) {
	return NewFixedNamed(cat, asg, window, q, nil)
}

// NewFixedNamed builds a fixed keep-alive policy with explicit function
// names, the form churn runs use so later registrations can refer to the
// initial population by name. nil names selects fn-0 … fn-{n-1}.
func NewFixedNamed(cat *models.Catalog, asg models.Assignment, window int, q Quality, names []string) (*Fixed, error) {
	b, err := newBaseNamed(cat, asg, window, names)
	if err != nil {
		return nil, err
	}
	name := "openwhisk-fixed-high"
	if q == QualityLowest {
		name = "openwhisk-fixed-low"
	}
	return &Fixed{base: b, quality: q, name: name}, nil
}

// Name implements cluster.Policy.
func (p *Fixed) Name() string { return p.name }

// KeepAlive implements cluster.Policy.
func (p *Fixed) KeepAlive(t int) []int {
	for fn := range p.out {
		if p.withinWindow(t, fn) {
			p.out[fn] = p.quality.variantIndex(p.family(fn))
		} else {
			p.out[fn] = cluster.NoVariant
		}
	}
	return p.out
}

// ColdVariant implements cluster.Policy.
func (p *Fixed) ColdVariant(_, fn int) int {
	return p.quality.variantIndex(p.family(fn))
}

// RecordInvocations implements cluster.Policy.
func (p *Fixed) RecordInvocations(t int, counts []int) { p.recordInvocations(t, counts) }

// RandomMix is the motivation study's third approach: a balanced random
// half of the functions keep their high-quality variant alive, the rest
// their low-quality variant, within the same fixed window.
type RandomMix struct {
	*base
	high []bool
}

// NewRandomMix builds the balanced random mixer. The assignment of
// functions to qualities is drawn once, seeded, with exactly half (rounded
// up) of the functions on high quality — "we ensured that the number of
// functions with high-quality and low-quality models kept-alive was
// balanced".
func NewRandomMix(cat *models.Catalog, asg models.Assignment, window int, seed int64) (*RandomMix, error) {
	return NewRandomMixNamed(cat, asg, window, seed, nil)
}

// NewRandomMixNamed builds the balanced random mixer with explicit function
// names (nil selects fn-0 … fn-{n-1}).
func NewRandomMixNamed(cat *models.Catalog, asg models.Assignment, window int, seed int64, names []string) (*RandomMix, error) {
	b, err := newBaseNamed(cat, asg, window, names)
	if err != nil {
		return nil, err
	}
	n := len(asg)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	high := make([]bool, n)
	for i, fn := range perm {
		high[fn] = i < (n+1)/2
	}
	return &RandomMix{base: b, high: high}, nil
}

// Name implements cluster.Policy.
func (p *RandomMix) Name() string { return "random-mix" }

func (p *RandomMix) variantFor(fn int) int {
	if p.high[fn] {
		return QualityHighest.variantIndex(p.family(fn))
	}
	return QualityLowest.variantIndex(p.family(fn))
}

// KeepAlive implements cluster.Policy.
func (p *RandomMix) KeepAlive(t int) []int {
	for fn := range p.out {
		if p.withinWindow(t, fn) {
			p.out[fn] = p.variantFor(fn)
		} else {
			p.out[fn] = cluster.NoVariant
		}
	}
	return p.out
}

// ColdVariant implements cluster.Policy.
func (p *RandomMix) ColdVariant(_, fn int) int { return p.variantFor(fn) }

// RegisterFunction implements cluster.DynamicPolicy: the newcomer joins the
// minority quality side (high on ties) so the mix stays balanced across the
// live population without redrawing the survivors.
func (p *RandomMix) RegisterFunction(name string, family int) (int, error) {
	slot, err := p.base.RegisterFunction(name, family)
	if err != nil {
		return 0, err
	}
	highs, lives := 0, 0
	active := p.reg.ActiveSlice()
	for fn := 0; fn < slot; fn++ {
		if active[fn] {
			lives++
			if p.high[fn] {
				highs++
			}
		}
	}
	p.high = append(p.high, highs <= lives-highs)
	return slot, nil
}

// RecordInvocations implements cluster.Policy.
func (p *RandomMix) RecordInvocations(t int, counts []int) { p.recordInvocations(t, counts) }

// Oracle is the motivation study's "intelligent solution": it peeks at the
// trace and, when opening a keep-alive window, pins the high-quality
// variant for functions that will actually be invoked at least Threshold
// times within the window, and the low-quality variant otherwise. It is an
// upper bound used in Tables II/III, not a deployable policy.
type Oracle struct {
	*base
	tr        *trace.Trace
	threshold int
	choice    []int  // variant chosen for the currently open window, per slot
	traceIdx  []int  // slot → index into tr.Functions (slots ≠ trace order under churn)
	used      []bool // trace functions already bound to a slot
}

// NewOracle builds the look-ahead policy. asg is indexed by trace function;
// on a churn trace only the minute-0 population gets slots up front and
// later arrivals register by trace name (RegisterFunction). threshold ≤ 0
// defaults to 1.
func NewOracle(cat *models.Catalog, asg models.Assignment, window int, tr *trace.Trace, threshold int) (*Oracle, error) {
	if tr == nil {
		return nil, fmt.Errorf("policy: oracle needs a trace")
	}
	if len(tr.Functions) != len(asg) {
		return nil, fmt.Errorf("policy: oracle trace has %d functions, assignment %d", len(tr.Functions), len(asg))
	}
	churn := tr.HasChurn()
	var names []string
	var initialAsg models.Assignment
	var traceIdx []int
	used := make([]bool, len(tr.Functions))
	for i := range tr.Functions {
		if !tr.Functions[i].LiveAt(0, tr.Horizon) {
			continue
		}
		names = append(names, tr.Functions[i].Name)
		initialAsg = append(initialAsg, asg[i])
		traceIdx = append(traceIdx, i)
		used[i] = true
	}
	if !churn {
		// Static traces never register by name, so invalid or duplicate
		// trace names must not reject the run; fall back to default names.
		if _, err := identity.NewRegistry(names); err != nil {
			names = nil
		}
	}
	b, err := newBaseNamed(cat, initialAsg, window, names)
	if err != nil {
		return nil, err
	}
	if threshold <= 0 {
		threshold = 1
	}
	o := &Oracle{base: b, tr: tr, threshold: threshold,
		choice: make([]int, len(initialAsg)), traceIdx: traceIdx, used: used}
	for i := range o.choice {
		o.choice[i] = cluster.NoVariant
	}
	return o, nil
}

// RegisterFunction implements cluster.DynamicPolicy: the slot binds to the
// first not-yet-bound trace function with the given name, which is where
// the oracle's look-ahead for the newcomer comes from.
func (p *Oracle) RegisterFunction(name string, family int) (int, error) {
	ti := -1
	for i := range p.tr.Functions {
		if !p.used[i] && p.tr.Functions[i].Name == name {
			ti = i
			break
		}
	}
	if ti < 0 {
		return 0, fmt.Errorf("policy: oracle trace has no unbound function named %q", name)
	}
	slot, err := p.base.RegisterFunction(name, family)
	if err != nil {
		return 0, err
	}
	p.used[ti] = true
	p.traceIdx = append(p.traceIdx, ti)
	p.choice = append(p.choice, cluster.NoVariant)
	return slot, nil
}

// Name implements cluster.Policy.
func (p *Oracle) Name() string { return "oracle-intelligent" }

// KeepAlive implements cluster.Policy.
func (p *Oracle) KeepAlive(t int) []int {
	for fn := range p.out {
		if p.withinWindow(t, fn) {
			p.out[fn] = p.choice[fn]
		} else {
			p.out[fn] = cluster.NoVariant
		}
	}
	return p.out
}

// ColdVariant implements cluster.Policy.
func (p *Oracle) ColdVariant(_, fn int) int {
	return QualityHighest.variantIndex(p.family(fn))
}

// RecordInvocations implements cluster.Policy.
func (p *Oracle) RecordInvocations(t int, counts []int) {
	for fn, c := range counts {
		if c == 0 {
			continue
		}
		// Look ahead: invocations arriving within (t, t+window].
		future := 0
		f := &p.tr.Functions[p.traceIdx[fn]]
		for dt := 1; dt <= p.window && t+dt < len(f.Counts); dt++ {
			future += f.Counts[t+dt]
		}
		if future >= p.threshold {
			p.choice[fn] = QualityHighest.variantIndex(p.family(fn))
		} else {
			p.choice[fn] = QualityLowest.variantIndex(p.family(fn))
		}
	}
	p.recordInvocations(t, counts)
}
