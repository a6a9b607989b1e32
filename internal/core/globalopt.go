package core

import (
	"fmt"
	"math/rand"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/stats"
)

// DowngradeStep selects what a downgrade does.
//
// StepByOne is the default: "the model with the lowest utility value is
// downgraded by one variant", flooring at the lowest variant. The floor is
// what preserves PULSE's warm-start parity with OpenWhisk ("maintaining an
// equivalent number of warm starts") — a sustained demand ramp downgrades
// qualities but never evicts the low-quality guarantee.
//
// StepByOneEvict is the literal Algorithm 2 reading ("warm starts with
// models having lower accuracy, or even cold starts"): a model already at
// its lowest variant is evicted entirely.
//
// StepEvict jumps straight to eviction and exists for the ablation
// benchmark.
type DowngradeStep int

// Downgrade step modes.
const (
	StepByOne DowngradeStep = iota
	StepByOneEvict
	StepEvict
)

// Priority is Algorithm 2's priority structure: a per-model count of past
// downgrades, "implemented as an array" to minimize memory overhead. When a
// peak occurs the counts are min–max normalized (Equation 1) so the most
// frequently downgraded model gets priority 1, protecting it from being
// downgraded again — the unbiasedness mechanism.
type Priority struct {
	counts []float64

	// Incremental min/max bookkeeping so a single model's normalized
	// priority can be read without an O(N) scan of the counts. The values
	// are exact small integers, so the tracked extrema are bit-identical to
	// a min/max scan over the counts; the counts of witnesses
	// (minCnt/maxCnt) tell us when a retire invalidates an extremum and a
	// rare O(N) rescan is needed.
	minVal, maxVal float64
	minCnt, maxCnt int
}

// NewPriority creates the structure "initialized … with zeros for all
// models … immediately after the system has started".
func NewPriority(nModels int) (*Priority, error) {
	if nModels <= 0 {
		return nil, fmt.Errorf("core: priority structure needs ≥1 model, got %d", nModels)
	}
	return &Priority{
		counts: make([]float64, nModels),
		minCnt: nModels,
		maxCnt: nModels,
	}, nil
}

// Bump adds one downgrade to model m's count.
func (p *Priority) Bump(m int) error {
	if m < 0 || m >= len(p.counts) {
		return fmt.Errorf("core: priority bump of invalid model %d", m)
	}
	old := p.counts[m]
	p.counts[m]++
	if old == p.minVal {
		if p.minCnt--; p.minCnt == 0 {
			p.rescanMin()
		}
	}
	switch v := old + 1; {
	case v > p.maxVal:
		p.maxVal, p.maxCnt = v, 1
	case v == p.maxVal:
		p.maxCnt++
	}
	return nil
}

func (p *Priority) rescanMin() {
	p.minVal, p.minCnt = p.counts[0], 1
	for _, v := range p.counts[1:] {
		switch {
		case v < p.minVal:
			p.minVal, p.minCnt = v, 1
		case v == p.minVal:
			p.minCnt++
		}
	}
}

func (p *Priority) rescanMax() {
	p.maxVal, p.maxCnt = p.counts[0], 1
	for _, v := range p.counts[1:] {
		switch {
		case v > p.maxVal:
			p.maxVal, p.maxCnt = v, 1
		case v == p.maxVal:
			p.maxCnt++
		}
	}
}

// normAt returns model m's min–max normalized priority (Equation 1):
//
//	(count[m] - min) / (max - min), and 0 when max == min,
//
// without touching the other models.
func (p *Priority) normAt(m int) float64 {
	if p.maxVal == p.minVal {
		return 0
	}
	return (p.counts[m] - p.minVal) / (p.maxVal - p.minVal)
}

// Count returns model m's raw downgrade count.
func (p *Priority) Count(m int) float64 {
	if m < 0 || m >= len(p.counts) {
		return 0
	}
	return p.counts[m]
}

// grow appends one zero-count slot (a freshly registered model).
func (p *Priority) grow() {
	p.counts = append(p.counts, 0)
	if p.minVal > 0 {
		p.minVal, p.minCnt = 0, 1
	} else {
		p.minCnt++
	}
	if p.maxVal == 0 {
		p.maxCnt++
	}
}

// retire resets a tombstoned slot's count to zero.
func (p *Priority) retire(m int) {
	if m < 0 || m >= len(p.counts) {
		return
	}
	old := p.counts[m]
	if old == 0 {
		return
	}
	p.counts[m] = 0
	if old == p.maxVal {
		p.maxCnt--
	}
	if p.minVal > 0 {
		p.minVal, p.minCnt = 0, 1
	} else {
		p.minCnt++
	}
	if p.maxCnt == 0 {
		p.rescanMax()
	}
}

// UtilityTerms breaks a utility value into its Algorithm 2 components for
// observability.
type UtilityTerms struct {
	Function int
	Variant  int
	Ai       float64 // accuracy improvement of current variant over next lower
	Pr       float64 // normalized downgrade priority
	Ip       float64 // invocation probability
}

// Uv returns the utility value Ai + Pr + Ip (Equation 2).
func (u UtilityTerms) Uv() float64 { return u.Ai + u.Pr + u.Ip }

// Downgrade records one applied downgrade with the utility breakdown that
// selected the victim, so audit logs can answer "why this model?".
type Downgrade struct {
	Function    int
	FromVariant int
	ToVariant   int // -1 when evicted entirely (cold start risk)
	Ai          float64
	Pr          float64
	Ip          float64
	Uv          float64
}

// GlobalOptimizer runs Algorithm 2's downgrade loop during peaks.
type GlobalOptimizer struct {
	catalog         *models.Catalog
	assignment      models.Assignment
	priority        *Priority
	step            DowngradeStep
	disablePriority bool       // ablation: Uv = Ai + Ip
	randomPick      *rand.Rand // non-nil: pick downgrade victims at random (strawman)
	terms           []UtilityTerms
	held            []int32 // heldSlots scratch
}

// UseRandomSelection switches the optimizer to the strawman the paper
// argues against ("random functions/models are downgraded, which may
// result in models with higher-chance of invocation being downgraded"):
// during a peak the victim is drawn uniformly from the downgradable models
// instead of by lowest utility value. Seeded for reproducibility.
func (g *GlobalOptimizer) UseRandomSelection(seed int64) {
	g.randomPick = rand.New(rand.NewSource(seed))
}

// NewGlobalOptimizer builds the optimizer for a fixed catalog/assignment.
func NewGlobalOptimizer(cat *models.Catalog, asg models.Assignment, step DowngradeStep, disablePriority bool) (*GlobalOptimizer, error) {
	if cat == nil {
		return nil, fmt.Errorf("core: nil catalog")
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if err := asg.Validate(cat, len(asg)); err != nil {
		return nil, err
	}
	if len(asg) == 0 {
		return nil, fmt.Errorf("core: empty assignment")
	}
	pr, err := NewPriority(len(asg))
	if err != nil {
		return nil, err
	}
	return &GlobalOptimizer{
		catalog:         cat,
		assignment:      asg,
		priority:        pr,
		step:            step,
		disablePriority: disablePriority,
	}, nil
}

// Priority exposes the priority structure (read-mostly; tests and reports).
func (g *GlobalOptimizer) Priority() *Priority { return g.priority }

// grow extends the optimizer with one freshly registered function slot.
func (g *GlobalOptimizer) grow(family int) {
	g.assignment = append(g.assignment, family)
	g.priority.grow()
}

// retire zeroes a tombstoned slot's downgrade count. The slot still
// participates in the min–max normalization, with the same weight as a
// never-downgraded live model; it can never be a downgrade candidate again
// because its decision is pinned to NoVariant.
func (g *GlobalOptimizer) retire(fn int) {
	g.priority.retire(fn)
}

// KeptAliveMemoryMB sums the memory of a decision vector (variant per
// function, -1 = none).
func (g *GlobalOptimizer) KeptAliveMemoryMB(decisions []int) (float64, error) {
	if len(decisions) != len(g.assignment) {
		return 0, fmt.Errorf("core: %d decisions for %d functions", len(decisions), len(g.assignment))
	}
	return g.keptAliveMB(decisions, g.heldSlots(decisions))
}

// Flatten applies Algorithm 2 to the decision vector in place: while the
// kept-alive memory exceeds targetKaM, the kept-alive model with the
// lowest utility value Uv = Ai + Pr + Ip is downgraded by one variant (or
// evicted from its lowest variant) and its priority count incremented. The
// invocation probabilities ip (one per function, valid for the functions
// currently kept alive) supply the Ip term.
//
// It returns the applied downgrades in order. The loop terminates when the
// peak is flattened or nothing remains to downgrade.
func (g *GlobalOptimizer) Flatten(decisions []int, ip []float64, targetKaM float64) ([]Downgrade, error) {
	if len(decisions) != len(g.assignment) {
		return nil, fmt.Errorf("core: %d decisions for %d functions", len(decisions), len(g.assignment))
	}
	if len(ip) != len(g.assignment) {
		return nil, fmt.Errorf("core: %d probabilities for %d functions", len(ip), len(g.assignment))
	}
	return g.flatten(decisions, ip, targetKaM, g.heldSlots(decisions))
}

// heldSlots lists, ascending, the slots that hold a variant in decisions.
// The returned slice is scratch reused across calls.
func (g *GlobalOptimizer) heldSlots(decisions []int) []int32 {
	g.held = g.held[:0]
	for fn, vi := range decisions {
		if vi >= 0 {
			g.held = append(g.held, int32(fn))
		}
	}
	return g.held
}

// keptAliveMB sums the memory decisions keeps alive over an ascending slot
// list that covers every slot holding a variant; summing in slot order keeps
// the float total independent of how the list was obtained.
func (g *GlobalOptimizer) keptAliveMB(decisions []int, slots []int32) (float64, error) {
	var total float64
	for _, fn32 := range slots {
		fn := int(fn32)
		vi := decisions[fn]
		if vi < 0 {
			continue
		}
		fam := g.catalog.Families[g.assignment[fn]]
		if vi >= fam.NumVariants() {
			return 0, fmt.Errorf("core: function %d keeps invalid variant %d", fn, vi)
		}
		total += fam.Variants[vi].MemoryMB
	}
	return total, nil
}

// flatten is Algorithm 2 over an ascending slot list that covers every slot
// holding a variant in decisions (the controller passes its active set, the
// exported Flatten the held slots). The Pr term comes from the priority
// structure's incremental normAt, so one downgrade costs O(len(slots)), not
// O(population).
func (g *GlobalOptimizer) flatten(decisions []int, ip []float64, targetKaM float64, slots []int32) ([]Downgrade, error) {
	kam, err := g.keptAliveMB(decisions, slots)
	if err != nil {
		return nil, err
	}
	var applied []Downgrade
	for kam > targetKaM {
		// Compute Uv for every model currently kept alive that can still
		// be downgraded (lines 4–8; normAt is line 4's normalization read
		// per model). Under StepByOne a model at its lowest variant is no
		// longer a candidate — the low-quality floor stays.
		g.terms = g.terms[:0]
		for _, fn32 := range slots {
			fn := int(fn32)
			vi := decisions[fn]
			if vi < 0 {
				continue
			}
			if vi == 0 && g.step == StepByOne {
				continue
			}
			fam := g.catalog.Families[g.assignment[fn]]
			ai, err := fam.AccuracyImprovement(vi)
			if err != nil {
				return nil, err
			}
			pr := g.priority.normAt(fn)
			if g.disablePriority {
				pr = 0
			}
			g.terms = append(g.terms, UtilityTerms{
				Function: fn,
				Variant:  vi,
				Ai:       ai,
				Pr:       pr,
				Ip:       stats.Clamp01(ip[fn]),
			})
		}
		if len(g.terms) == 0 {
			break // nothing left to downgrade; peak cannot be flattened further
		}

		// Downgrade the model with the lowest Uv (line 9), breaking ties
		// toward the lowest function index for determinism — or, in the
		// strawman mode, a uniformly random victim.
		best := 0
		if g.randomPick != nil {
			best = g.randomPick.Intn(len(g.terms))
		} else {
			for i := 1; i < len(g.terms); i++ {
				if g.terms[i].Uv() < g.terms[best].Uv() {
					best = i
				}
			}
		}
		chosen := g.terms[best]
		fn := chosen.Function
		fam := g.catalog.Families[g.assignment[fn]]
		from := decisions[fn]
		to := from - 1
		if g.step == StepEvict || from == 0 {
			to = -1
		}
		decisions[fn] = to

		freed := fam.Variants[from].MemoryMB
		if to >= 0 {
			freed -= fam.Variants[to].MemoryMB
		}
		kam -= freed

		// Update the priority structure (line 10).
		if err := g.priority.Bump(fn); err != nil {
			return nil, err
		}
		applied = append(applied, Downgrade{
			Function:    fn,
			FromVariant: from,
			ToVariant:   to,
			Ai:          chosen.Ai,
			Pr:          chosen.Pr,
			Ip:          chosen.Ip,
			Uv:          chosen.Uv(),
		})
	}
	return applied, nil
}
