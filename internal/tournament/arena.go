package tournament

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/forkjoin"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// Config parameterizes an Arena.
type Config struct {
	Catalog    *models.Catalog
	Assignment models.Assignment
	// Cost prices keep-alive memory for the live policy and every entrant;
	// the zero value selects the AWS-calibrated default.
	Cost cluster.CostModel
	// SeriesWindow is how many minutes the time-series store retains at
	// minute resolution (default DefaultSeriesWindow). The hourly rollup
	// ring holds the same number of buckets, extending the horizon 60×.
	SeriesWindow int
	// Entrants are the raced policies, in ranking/report order. Names must
	// be unique and non-empty.
	Entrants []ShadowEntrant
}

// famInfo caches the per-variant characteristics of one model family in
// the form the hot path needs: no catalog traversal per sample.
type famInfo struct {
	fam        *models.Family // what the report prices ledgers against
	byName     map[string]int
	memMB      []float64
	costPerMin []float64
	highest    int
}

// account is one policy's account of one function: the integer ledger the
// report prices, so reports do not depend on how the feed batches samples.
// Retirement prices it for good, in place, and releases it: a departed slot
// keeps fixed-size state, and retiring one allocates nothing.
type account struct {
	led    cluster.Ledger // nil once retired
	priced cluster.Totals // the ledger's price once retired
}

// totals prices the account (fi is its function's family).
func (ac *account) totals(fi *famInfo, cost cluster.CostModel) cluster.Totals {
	t := ac.priced
	if ac.led != nil {
		ac.led.Price(&t, fi.fam, cost)
	}
	return t
}

// retire prices the ledger for good and releases it.
func (ac *account) retire(fi *famInfo, cost cluster.CostModel) {
	ac.priced, ac.led = ac.totals(fi, cost), nil
}

// fnShared is one function's shared state: the live policy's account plus
// the counters only samples naming the function touch. What every minute
// boundary reads for every function lives in the Arena's columns instead.
type fnShared struct {
	account
	seenMinute int // minute of the last invocation sample, -1 before any
	downgrades int
}

// entrant is one raced policy plus its arena-side bookkeeping.
type entrant struct {
	impl ShadowEntrant
	hind HindsightEntrant // non-nil when impl has hindsight

	open []int     // variant held in the open minute per fn, NoVariant when none
	led  []account // per-function account

	// rests marks a RestingEntrant whose Rests() held at construction. Only
	// for those, held lists the slots holding a variant in the open minute,
	// ascending; spare is the previous minute's list, reused as the next
	// one's buffer.
	rests       bool
	held, spare []int32

	// Open-minute cluster-wide accumulators, written into the store when
	// the minute closes.
	minKaM  float64
	minCost float64
	minCold int
}

// Arena races N ShadowEntrants in-stream against the live policy. It
// implements telemetry.Observer and telemetry.LifecycleObserver; the
// attribution.Accountant is a thin adapter over one Arena carrying the
// three classic baselines as entrants 0..2.
//
// Accounting order is fixed and deterministic per entrant: at every minute
// boundary each entrant is walked through the closing minute's Records and
// then the opening minute's KeepAlive consults, functions in ascending slot
// order, regardless of shard count or runtime serving mode. A resting
// entrant is visited only at the slots it held or saw invoked in the
// previous minute, still ascending; the slots it skips hold nothing and
// charge nothing. Per-entrant minute accumulators are independent, so this
// order also pins the float summation order per entrant.
//
// Different entrants' walks run concurrently, on the goroutine holding the
// arena plus up to GOMAXPROCS−1 helpers, so the interleaving of calls
// across entrants is not part of the contract: entrants must share no
// mutable state.
type Arena struct {
	mu   sync.Mutex
	cost cluster.CostModel

	fams  []famInfo
	fns   []fnShared
	ents  []entrant
	names []string

	// Per-slot columns, indexed like fns: the fields every minute boundary
	// reads, kept dense so the walks stream them instead of striding
	// through fnShared.
	famOf   []int
	retired []bool // slot deregistered; ledger closed, counters frozen
	openCnt []int  // invocations counted into the open minute (barrier feed)

	// live lists the slots a minute boundary walks, ascending. A deregister
	// only marks it stale; the next minute boundary drops the retired slots
	// in place, so a burst of deregisters costs one pass.
	live      []int32
	liveStale bool
	// touched lists the slots whose openCnt is non-zero, so a boundary
	// clears those instead of the whole column. The boundary sorts it first:
	// it is the resting entrants' invoked-at-m−1 list.
	touched []int32

	cur   int // open minute, -1 before the first sample
	store *store

	// Open-minute shared accumulators (the live policy's account).
	minActualKaM, minActualCost float64
	minActualCold, minInv       int

	scratch []float64 // store-row staging, preallocated (zero-alloc pushes)

	walker *walker        // the entrant walk's task state
	pool   *forkjoin.Pool // walks the entrants at every minute boundary
}

// boundary is one minute boundary as an entrant's walk sees it: the close
// of minute m−1 (when closing) fused with the open of minute m. It is
// read-only during the walk; each walk writes only its own entrant.
type boundary struct {
	m       int
	closing bool
	live    []int32 // live slots, ascending
	inv     []int32 // slots invoked in m−1, ascending (retired ones included)
	openCnt []int
	retired []bool
	famOf   []int
	fams    []famInfo
}

// walk runs e through the boundary. Closing, e receives every live
// function's invocation count for m−1 in ascending slot order — a resting
// entrant only the non-zero counts — and its minute accumulators reset.
// Opening, e is asked which variant it holds warm for every live function
// in ascending slot order and is charged keep-alive for each held variant;
// a resting entrant is asked only for the live slots it held in m−1 merged
// with the slots invoked in m−1, every other slot already holding
// NoVariant in e.open.
func (b *boundary) walk(e *entrant) {
	if b.closing {
		if e.rests {
			for _, slot := range b.inv {
				if !b.retired[slot] {
					e.impl.Record(b.m-1, int(slot), b.openCnt[slot])
				}
			}
		} else {
			for _, slot := range b.live {
				e.impl.Record(b.m-1, int(slot), b.openCnt[slot])
			}
		}
		e.minKaM, e.minCost, e.minCold = 0, 0, 0
	}
	ka, cost := e.minKaM, e.minCost
	if !e.rests {
		for _, slot := range b.live {
			if mb, c, ok := b.consult(e, slot); ok {
				ka += mb
				cost += c
			}
		}
		e.minKaM, e.minCost = ka, cost
		return
	}
	held, inv, next := e.held, b.inv, e.spare[:0]
	for i, j := 0, 0; i < len(held) || j < len(inv); {
		var slot int32
		if j == len(inv) || i < len(held) && held[i] <= inv[j] {
			slot = held[i]
			if j < len(inv) && inv[j] == slot {
				j++
			}
			i++
		} else {
			slot = inv[j]
			j++
		}
		if b.retired[slot] {
			continue
		}
		if mb, c, ok := b.consult(e, slot); ok {
			ka += mb
			cost += c
			next = append(next, slot)
		}
	}
	e.held, e.spare = next, held
	e.minKaM, e.minCost = ka, cost
}

// consult asks e which variant it holds warm for slot in minute b.m, notes
// it in e.open and e's ledger, and returns the held variant's keep-alive
// memory and cost for the minute. The family's geometry is only looked up
// for a slot the entrant holds. ok reports whether a variant is held.
func (b *boundary) consult(e *entrant, slot int32) (memMB, cost float64, ok bool) {
	fn := int(slot)
	v := e.impl.KeepAlive(b.m, fn)
	if v < 0 {
		e.open[fn] = NoVariant
		return 0, 0, false
	}
	fi := &b.fams[b.famOf[fn]]
	if v > fi.highest {
		v = fi.highest
	}
	e.open[fn] = v
	e.led[fn].led.Hold(v)
	return fi.memMB[v], fi.costPerMin[v], true
}

// walker is the boundary walk's task state: task i walks the entrant at
// order[i], dense entrants first (their walks are the long ones, so they
// are claimed first). The pool's helpers hold the walker, never its Arena,
// so an unreachable arena is still finalized, and its finalizer stops the
// helpers.
type walker struct {
	ents  []entrant // the arena's entrants (same backing array)
	order []int     // entrant indices in claim order: dense first
	b     boundary  // written before the walk, cleared after the barrier
}

func (w *walker) task(i int) { w.b.walk(&w.ents[w.order[i]]) }

// New builds an Arena. The catalog and assignment must match the ones
// driving the policy under observation. Its minute boundaries walk the
// entrants on min(GOMAXPROCS, len(Entrants)) goroutines, the caller's
// included.
func New(cfg Config) (*Arena, error) {
	return newArena(cfg, min(runtime.GOMAXPROCS(0), len(cfg.Entrants)))
}

// newArena is New with the boundary walk's goroutine count fixed.
func newArena(cfg Config, workers int) (*Arena, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("tournament: nil catalog")
	}
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assignment.Validate(cfg.Catalog, len(cfg.Assignment)); err != nil {
		return nil, err
	}
	if len(cfg.Assignment) == 0 {
		return nil, fmt.Errorf("tournament: empty assignment")
	}
	if cfg.Cost.USDPerGBSecond == 0 {
		cfg.Cost = cluster.DefaultCostModel()
	}
	if cfg.Cost.USDPerGBSecond < 0 {
		return nil, fmt.Errorf("tournament: negative cost rate %v", cfg.Cost.USDPerGBSecond)
	}
	if cfg.SeriesWindow <= 0 {
		cfg.SeriesWindow = DefaultSeriesWindow
	}
	names := make([]string, len(cfg.Entrants))
	seen := make(map[string]bool, len(cfg.Entrants))
	for i, e := range cfg.Entrants {
		if e == nil {
			return nil, fmt.Errorf("tournament: nil entrant at index %d", i)
		}
		n := e.Name()
		if n == "" {
			return nil, fmt.Errorf("tournament: entrant %d has an empty name", i)
		}
		if seen[n] {
			return nil, fmt.Errorf("tournament: duplicate entrant %q", n)
		}
		seen[n] = true
		names[i] = n
	}
	n := len(cfg.Assignment)
	a := &Arena{
		cost:    cfg.Cost,
		fams:    make([]famInfo, len(cfg.Catalog.Families)),
		famOf:   make([]int, 0, n),
		fns:     make([]fnShared, 0, n),
		retired: make([]bool, 0, n),
		openCnt: make([]int, 0, n),
		live:    make([]int32, 0, n),
		ents:    make([]entrant, len(cfg.Entrants)),
		names:   names,
		cur:     -1,
		store:   newStore(cfg.SeriesWindow, len(cfg.Entrants)),
		scratch: make([]float64, rowWidth(len(cfg.Entrants))),
	}
	for i := range cfg.Catalog.Families {
		fam := &cfg.Catalog.Families[i]
		fi := famInfo{
			fam:        fam,
			byName:     make(map[string]int, fam.NumVariants()),
			memMB:      make([]float64, fam.NumVariants()),
			costPerMin: make([]float64, fam.NumVariants()),
			highest:    fam.NumVariants() - 1,
		}
		for vi, v := range fam.Variants {
			fi.byName[v.Name] = vi
			fi.memMB[vi] = v.MemoryMB
			fi.costPerMin[vi] = cfg.Cost.KeepAliveUSDPerMinute(v.MemoryMB)
		}
		a.fams[i] = fi
	}
	for ei := range cfg.Entrants {
		e := &a.ents[ei]
		e.impl = cfg.Entrants[ei]
		e.hind, _ = cfg.Entrants[ei].(HindsightEntrant)
		if r, ok := cfg.Entrants[ei].(RestingEntrant); ok {
			e.rests = r.Rests()
		}
		e.open = make([]int, 0, n)
		e.led = make([]account, 0, n)
	}
	for _, fam := range cfg.Assignment {
		a.addSlot(fam)
	}
	a.walker = &walker{ents: a.ents}
	for _, rests := range []bool{false, true} {
		for ei := range a.ents {
			if a.ents[ei].rests == rests {
				a.walker.order = append(a.walker.order, ei)
			}
		}
	}
	a.pool = forkjoin.New(workers, a.walker.task)
	if a.pool.Workers() > 1 {
		// The helpers reference only the pool and the walker, never a, so
		// an arena nobody holds is still collected; this stops its helpers
		// when it is.
		runtime.SetFinalizer(a, func(a *Arena) { a.pool.Close() })
	}
	return a, nil
}

// EntrantNames lists the entrant names in registration (report) order.
func (a *Arena) EntrantNames() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// EntrantIndex resolves an entrant name to its index.
func (a *Arena) EntrantIndex(name string) (int, bool) {
	for i, n := range a.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// LedgersReleased reports whether slot fn's ledgers — shared and
// per-entrant — have been priced and released (true only after
// retirement). It exists for memory-retention tests.
func (a *Arena) LedgersReleased(fn int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if fn < 0 || fn >= len(a.fns) || !a.retired[fn] || a.fns[fn].led != nil {
		return false
	}
	for ei := range a.ents {
		if a.ents[ei].led[fn].led != nil {
			return false
		}
	}
	return true
}

// addSlot opens the next slot, of family fam: a fresh shared account, and
// one per entrant, each of which registers it.
func (a *Arena) addSlot(fam int) {
	fi, fn := &a.fams[fam], len(a.fns)
	a.famOf = append(a.famOf, fam)
	a.retired = append(a.retired, false)
	a.openCnt = append(a.openCnt, 0)
	a.live = append(a.live, int32(fn))
	a.fns = append(a.fns, fnShared{account: account{led: cluster.NewLedger(fi.fam)}, seenMinute: -1})
	for ei := range a.ents {
		e := &a.ents[ei]
		e.open = append(e.open, NoVariant)
		e.led = append(e.led, account{led: cluster.NewLedger(fi.fam)})
		e.impl.Register(fn, fam, fi.fam.NumVariants())
	}
}

// roll advances the open minute to m, closing every minute in between.
// Minutes only move forward; a sample carrying an older minute (only a
// malformed feed sends one: producers emit at their barriers, in minute
// order) is counted into the open minute.
func (a *Arena) roll(m int) {
	if a.cur < 0 {
		a.advance(max(m, 0), false)
		return
	}
	for a.cur < m {
		a.advance(a.cur+1, true)
	}
}

// liveSlots returns the live slots in ascending order, first dropping the
// ones retired since the last minute boundary (in place: no allocation).
func (a *Arena) liveSlots() []int32 {
	if a.liveStale {
		live := a.live[:0]
		for _, fn := range a.live {
			if !a.retired[fn] {
				live = append(live, fn)
			}
		}
		a.live, a.liveStale = live, false
	}
	return a.live
}

// fillRow snapshots the open minute's cluster-wide accumulators into the
// preallocated scratch row in store layout — the values a closing boundary
// will push. Called with a.mu held.
func (a *Arena) fillRow() []float64 {
	row := a.scratch
	row[0] = a.minActualKaM
	row[1] = a.minActualCost
	row[2] = float64(a.minActualCold)
	row[3] = float64(a.minInv)
	for ei := range a.ents {
		e := &a.ents[ei]
		base := sharedChans + entrantChans*ei
		row[base] = e.minKaM
		row[base+1] = e.minCost
		row[base+2] = float64(e.minCold)
		row[base+3] = e.minCost - a.minActualCost
	}
	return row
}

// advance opens minute m, closing the open minute m−1 first when closing:
// its row goes into the time-series store, then every entrant is walked
// through the boundary on the pool (see boundary.walk), and the barrier
// feed and shared accumulators reset.
func (a *Arena) advance(m int, closing bool) {
	if closing {
		a.store.push(a.cur, a.fillRow())
		slices.Sort(a.touched)
	}
	a.walker.b = boundary{
		m: m, closing: closing,
		live: a.liveSlots(), inv: a.touched,
		openCnt: a.openCnt, retired: a.retired, famOf: a.famOf, fams: a.fams,
	}
	a.pool.Run(len(a.walker.order))
	a.walker.b = boundary{} // hold no column a registration may since have regrown
	for _, slot := range a.touched {
		a.openCnt[slot] = 0
	}
	a.touched = a.touched[:0]
	a.minActualKaM, a.minActualCost = 0, 0
	a.minActualCold, a.minInv = 0, 0
	a.cur = m
}

// ValueAt returns one cluster-wide channel's value at a single minute:
// the stored value for a closed minute still inside the series window, or
// the live accumulators when the minute is the currently open one — what
// its closing boundary would push if the minute ended now. Reports false for minutes
// never seen or already evicted from the ring, and for selectors the
// arena does not carry.
func (a *Arena) ValueAt(sel Selector, minute int) (float64, bool) {
	idx, ok := sel.index(len(a.ents))
	if !ok || minute < 0 {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if minute == a.cur {
		return a.fillRow()[idx], true
	}
	return a.store.at(idx, minute)
}

// Series returns the trailing time-series for one selector, oldest point
// first: the last window minutes at minute resolution, or — with hourly
// set — the last window hours from the rollup ring (gauges averaged,
// amounts summed; Point.Minute is the hour's first minute). The open
// minute is not included; it is still accumulating.
func (a *Arena) Series(sel Selector, window int, hourly bool) []Point {
	idx, ok := sel.index(len(a.ents))
	if !ok {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cur <= 0 {
		return nil
	}
	return a.store.series(idx, a.cur-1, window, hourly, nil)
}

// ObserveKeepAlive implements telemetry.Observer: the live policy's
// keep-alive decision for one function-minute. Only holder samples carry
// anything to account (release edges and resting functions charge nothing),
// so the sparse contract changes no ledger; the clock rolls on whichever of
// this and ObserveMinute arrives first in a minute.
func (a *Arena) ObserveKeepAlive(s telemetry.KeepAliveSample) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(s.Minute)
	if s.Function < 0 || s.Function >= len(a.fns) || a.retired[s.Function] {
		// Retired slots are pinned to NoVariant by every well-formed feed;
		// a contrary sample is foreign and is dropped (the ledger is gone).
		return
	}
	fi := &a.fams[a.famOf[s.Function]]
	if s.Variant < 0 || s.Variant >= len(fi.memMB) {
		return
	}
	a.fns[s.Function].led.Hold(s.Variant)
	a.minActualKaM += fi.memMB[s.Variant]
	a.minActualCost += fi.costPerMin[s.Variant]
}

// ObserveInvocation implements telemetry.Observer: one batch of served
// invocations (a function-minute arrives as at most two, cold first).
// Warm/cold attribution for every entrant happens here; the first sample of
// a function-minute marks the minute invoked (the cold slot for entrants
// holding nothing, the hindsight entrants' retroactive keep-alive charge).
// The batch also accumulates into the open minute's barrier count,
// delivered to entrants at close.
func (a *Arena) ObserveInvocation(s telemetry.InvocationSample) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(s.Minute)
	if s.Function < 0 || s.Function >= len(a.fns) || a.retired[s.Function] {
		// A retired function cannot be invoked; a contrary sample is a
		// foreign feed and is dropped (the per-variant ledger is gone).
		return
	}
	n := s.Count
	if n <= 0 {
		n = 1
	}
	f := &a.fns[s.Function]
	fi := &a.fams[a.famOf[s.Function]]
	first := f.seenMinute != s.Minute
	if first && s.Minute > f.seenMinute {
		f.seenMinute = s.Minute
	}
	if a.openCnt[s.Function] == 0 {
		a.touched = append(a.touched, int32(s.Function))
	}
	a.openCnt[s.Function] += n
	a.minInv += n
	vi, ok := fi.byName[s.Variant]
	if !ok {
		// A variant name outside the catalog (foreign feed); attribute to
		// the highest variant rather than dropping the invocations.
		vi = fi.highest
	}
	if s.Cold {
		f.led.Serve(vi, 0, n)
		a.minActualCold += n
	} else {
		f.led.Serve(vi, n, 0)
	}
	for ei := range a.ents {
		e := &a.ents[ei]
		cold := first && e.hind == nil && e.open[s.Function] < 0
		if first && e.hind != nil {
			// Hindsight: charged on the minute's first batch, never cached —
			// a stale-minute "first" charges again, exactly like the
			// pre-refactor oracle.
			hv := min(e.hind.HindsightKeepAlive(s.Minute, s.Function), fi.highest)
			if cold = hv < 0; !cold {
				e.led[s.Function].led.Hold(hv)
				e.minKaM += fi.memMB[hv]
				e.minCost += fi.costPerMin[hv]
			}
		}
		if cold {
			e.minCold++
		}
		sv := e.open[s.Function]
		if sv < 0 {
			sv = fi.highest
		}
		// An entrant's cold start is one per function-minute, whatever the
		// feed's batching: the batch that marks the minute carries it.
		e.led[s.Function].led.ServeMinute(sv, n, cold)
	}
}

// ObserveMinute implements telemetry.Observer. The rollup's payload is
// recomputed internally (so simulated and live feeds, which price the
// minute in different float orders, cannot diverge); the sample only
// advances the clock.
func (a *Arena) ObserveMinute(s telemetry.MinuteSample) {
	a.mu.Lock()
	a.roll(s.Minute)
	a.mu.Unlock()
}

// ObserveSchedule implements telemetry.Observer (ignored: plans are
// intent, not cost).
func (a *Arena) ObserveSchedule(telemetry.ScheduleSample) {}

// ObservePeak implements telemetry.Observer (ignored: peak episodes are
// visible through the downgrade counts they cause).
func (a *Arena) ObservePeak(telemetry.PeakSample) {}

// ObserveDowngrade implements telemetry.Observer: counts Algorithm 2
// downgrades per function, the /top "downgrades" ranking.
func (a *Arena) ObserveDowngrade(s telemetry.DowngradeSample) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(s.Minute)
	if s.Function >= 0 && s.Function < len(a.fns) {
		a.fns[s.Function].downgrades++
	}
}

// ObserveRegister implements telemetry.LifecycleObserver: a new function
// slot opens a fresh shared ledger plus one ledger per entrant. The
// sample must carry the next dense slot index (lifecycle events are
// emitted in slot order by both the cluster engine and the live runtime);
// anything else is a foreign feed and is dropped rather than corrupting
// the ledgers.
//
// Deliberately, registration does NOT advance the clock: the engine
// stamps arrivals with the arrival minute t while the live runtime stamps
// them with the still-open previous minute, so rolling here would give
// the two feeds different first barriers for the new slot (the engine's
// would skip the close of t-1 and the minute-t KeepAlive consult). By
// appending at whatever minute is open and letting the next non-lifecycle
// sample roll, the slot's first Record and first KeepAlive land on the
// same minutes in both feeds — stateful entrants (the Q-learner's shared
// table) diverge permanently on any such off-by-one.
func (a *Arena) ObserveRegister(s telemetry.RegisterSample) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.Family >= 0 && s.Family < len(a.fams) && s.Function == len(a.fns) {
		a.addSlot(s.Family)
	}
}

// ObserveDeregister implements telemetry.LifecycleObserver: the slot's
// ledgers — shared and per-entrant — are closed. Their counters stay in
// the report, but every entrant stops being scanned for the slot from the
// sample's minute on (a deleted function would not have been kept alive
// by any baseline either). Retirement is applied before the clock
// advances so the minute the sample names is the first one entrants skip.
// Every ledger of the slot is priced and released (account.retire): a
// retired slot cannot accumulate further kept-alive minutes or invocations,
// and pricing is a function of the counts alone, so the report reads the
// same either way.
func (a *Arena) ObserveDeregister(s telemetry.DeregisterSample) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.Function < 0 || s.Function >= len(a.fns) {
		return
	}
	if !a.retired[s.Function] {
		a.retired[s.Function], a.liveStale = true, true
		fi := &a.fams[a.famOf[s.Function]]
		a.fns[s.Function].retire(fi, a.cost)
		for ei := range a.ents {
			e := &a.ents[ei]
			e.led[s.Function].retire(fi, a.cost)
			e.open[s.Function] = NoVariant
			e.impl.Retire(s.Function)
		}
	}
	a.roll(s.Minute)
}

var (
	_ telemetry.Observer          = (*Arena)(nil)
	_ telemetry.LifecycleObserver = (*Arena)(nil)
)
