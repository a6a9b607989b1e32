package policy

import (
	"math"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
)

// QLearnEntrant is a tournament shadow policy that learns a keep-alive
// rule online with semi-Markov (options) Q-learning. It decides only at
// invocation events, as the off-policy keep-alive learners do, so an idle
// function costs it nothing: no decision, no update. The state is coarse
// enough to generalize across functions and the Q-table is shared by every
// function, so one function's experience transfers to look-alikes at once.
//
//	state  = gap since the previous invoked minute (8) × the minute's count (4) → 32 states
//	option = drop | keep the lowest or the highest variant for k minutes,
//	         k ∈ {1, 2, 5, 10, 30}                                              → 11 options
//	reward = −(held minutes × the held variant's keep-alive $/min)
//	         −(ColdCostMinutes × the highest variant's $/min when the next
//	           invocation finds nothing held)
//
// At the open of the minute after an invoked minute the entrant picks an
// option ε-greedily for the state that minute left, and holds its variant
// until the option expires. The next invoked minute settles it at the
// barrier, bootstrapping from the new state over the elapsed minutes:
//
//	Q(s,o) += LearnRate · (r + Discount^elapsed · max Q(s′,·) − Q(s,o))
//
// Determinism: the option picked at the open of minute m uses history
// through minute m−1 plus a hash of (m, fn) for ε-exploration — no global
// RNG — and Q-updates happen only in Record, at the minute barrier, in
// ascending function order. The learned values are therefore a pure
// function of the trace, invariant to shard count and serving mode (see
// DESIGN.md §6.9).
type QLearnEntrant struct {
	name string
	cfg  QLearnConfig

	q [qStates][qOptions]float64

	slots []qSlot
	fams  []qFamily // per catalog family, indexed by qSlot.fam
}

// qSlot is one function's observables and its running option.
type qSlot struct {
	last  int32 // last invoked minute, -1 before any
	start int32 // first minute of the running option
	fam   int32
	state uint8 // state the last invoked minute left
	opt   int8  // running option, or optNone / optDue
}

// qFamily is one family's keep-alive prices and highest variant index.
type qFamily struct {
	costLow, costHigh float64
	highest           int
}

// QLearnConfig parameterizes the learner.
type QLearnConfig struct {
	// LearnRate is the Q-update step size in (0, 1].
	LearnRate float64
	// Discount is the per-minute future-reward discount factor in [0, 1).
	Discount float64
	// ExploreEpsilon is the probability of a (deterministic, hash-driven)
	// exploratory option, in [0, 1).
	ExploreEpsilon float64
	// ColdCostMinutes expresses one cold start as this many minutes of
	// keep-alive for the family's highest variant.
	ColdCostMinutes float64
}

// DefaultQLearnConfig returns working defaults.
func DefaultQLearnConfig() QLearnConfig {
	return QLearnConfig{LearnRate: 0.1, Discount: 0.9, ExploreEpsilon: 0.05, ColdCostMinutes: 15}
}

var (
	// qHolds are the keep options' lengths in minutes. The longest sets how
	// long a held slot can outlive its last invocation.
	qHolds = [...]int32{1, 2, 5, 10, 30}
	// qGapEdges and qCountEdges are the state buckets' inclusive upper
	// bounds; a value above the last edge falls in one more bucket. A first
	// invocation has gap −1, so it has the first gap bucket to itself.
	qGapEdges   = [...]int{0, 1, 2, 5, 10, 30, 60}
	qCountEdges = [...]int{1, 3, 9}
)

const (
	qStates  = (len(qGapEdges) + 1) * (len(qCountEdges) + 1)
	qOptions = 1 + 2*len(qHolds)

	optDue  = -2 // an invoked minute closed: the next KeepAlive picks an option
	optNone = -1 // no option running: before the first invocation
	optDrop = 0  // hold nothing until the next invocation
)

// NewQLearnEntrant builds the entrant. The catalog and cost model price
// the options; the zero-value config selects DefaultQLearnConfig.
func NewQLearnEntrant(name string, cat *models.Catalog, cost cluster.CostModel, cfg QLearnConfig) *QLearnEntrant {
	if cfg == (QLearnConfig{}) {
		cfg = DefaultQLearnConfig()
	}
	if cost.USDPerGBSecond == 0 {
		cost = cluster.DefaultCostModel()
	}
	e := &QLearnEntrant{name: name, cfg: cfg, fams: make([]qFamily, len(cat.Families))}
	for i := range cat.Families {
		fam := &cat.Families[i]
		e.fams[i] = qFamily{
			costLow:  cost.KeepAliveUSDPerMinute(fam.Variants[0].MemoryMB),
			costHigh: cost.KeepAliveUSDPerMinute(fam.Highest().MemoryMB),
			highest:  fam.NumVariants() - 1,
		}
	}
	return e
}

// Name implements tournament.ShadowEntrant.
func (e *QLearnEntrant) Name() string { return e.name }

// Register implements tournament.ShadowEntrant.
func (e *QLearnEntrant) Register(fn, fam, numVariants int) {
	e.slots = append(e.slots, qSlot{last: -1, fam: int32(fam), opt: optNone})
}

// Retire implements tournament.ShadowEntrant: the slot returns to the
// never-invoked state; the shared Q-table keeps what the function taught
// it.
func (e *QLearnEntrant) Retire(fn int) {
	e.slots[fn] = qSlot{last: -1, fam: e.slots[fn].fam, opt: optNone}
}

// Rests implements tournament.RestingEntrant: Record with a zero count
// returns at once, a slot holds nothing before its first invocation, and an
// option, once it lets go, holds nothing until the next invocation picks
// another.
func (e *QLearnEntrant) Rests() bool { return true }

// qState buckets an invoked minute into a table row: gap is the minutes
// since the previous invoked minute (−1 for the first), count the minute's
// invocations.
func qState(gap, count int) uint8 {
	return uint8(bucket(gap, qGapEdges[:])*(len(qCountEdges)+1) + bucket(count, qCountEdges[:]))
}

// bucket returns the index of the first edge at or above x, len(edges) when
// x is above them all.
func bucket(x int, edges []int) int {
	b := 0
	for b < len(edges) && x > edges[b] {
		b++
	}
	return b
}

// qhash is a deterministic 64-bit mix of (m, fn) — splitmix64-style — so
// ε-exploration needs no RNG state and is identical on every replay.
func qhash(m, fn int) uint64 {
	z := uint64(m)*0x9E3779B97F4A7C15 + uint64(fn)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// greedy returns state s's best option (the lowest index on ties) and its
// value.
func (e *QLearnEntrant) greedy(s uint8) (int8, float64) {
	row := &e.q[s]
	a, best := 0, row[0]
	for c := 1; c < qOptions; c++ {
		if row[c] > best {
			a, best = c, row[c]
		}
	}
	return int8(a), best
}

// option decodes a keep option (a > optDrop): whether it keeps the highest
// variant, else the lowest, and for how many minutes.
func option(a int8) (high bool, k int32) {
	i := int(a) - 1
	return i >= len(qHolds), qHolds[i%len(qHolds)]
}

// KeepAlive implements tournament.ShadowEntrant. At the open of the minute
// after an invoked minute it picks the ε-greedy option; otherwise it holds
// the running option's variant until the option expires.
func (e *QLearnEntrant) KeepAlive(m, fn int) int {
	s := &e.slots[fn]
	if s.opt == optDue {
		a, _ := e.greedy(s.state)
		if h := qhash(m, fn); float64(h%1_000_000) < e.cfg.ExploreEpsilon*1_000_000 {
			a = int8((h / 1_000_000) % uint64(qOptions))
		}
		s.opt, s.start = a, int32(m)
	}
	if s.opt <= optDrop {
		return cluster.NoVariant
	}
	high, k := option(s.opt)
	if int32(m) >= s.start+k {
		return cluster.NoVariant
	}
	if high {
		return e.fams[s.fam].highest
	}
	return 0
}

// Record implements tournament.ShadowEntrant: an invoked minute settles the
// running option at the barrier and makes the next KeepAlive pick another.
// An idle minute changes nothing.
func (e *QLearnEntrant) Record(m, fn, count int) {
	if count <= 0 {
		return
	}
	s := &e.slots[fn]
	gap := -1
	if s.last >= 0 {
		gap = m - int(s.last)
	}
	ns := qState(gap, count)
	if s.opt >= optDrop {
		e.settle(s, m, ns)
	}
	s.last, s.state, s.opt = int32(m), ns, optDue
}

// settle closes s's running option at invoked minute m, which left state
// ns: the minutes it held a variant are paid for, and so is a cold start
// when m found nothing held.
func (e *QLearnEntrant) settle(s *qSlot, m int, ns uint8) {
	f := &e.fams[s.fam]
	var r float64
	found := false
	if s.opt > optDrop {
		high, k := option(s.opt)
		end := s.start + k - 1 // the option's last held minute
		cost := f.costLow
		if high {
			cost = f.costHigh
		}
		r = -float64(min(int32(m), end)-s.start+1) * cost
		found = int32(m) <= end
	}
	if !found {
		r -= e.cfg.ColdCostMinutes * f.costHigh
	}
	_, best := e.greedy(ns)
	q := &e.q[s.state][s.opt]
	*q += e.cfg.LearnRate * (r + math.Pow(e.cfg.Discount, float64(m-int(s.last)))*best - *q)
}
