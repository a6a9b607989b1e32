package runtime

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// ErrClosed is returned by Invoke and Step after Close: the runtime's
// policy may own resources (the sharded controller's worker pool) that are
// released on Close, so calling into it afterwards is a lifecycle error,
// not a panic.
var ErrClosed = errors.New("runtime: closed")

// ErrUnknownFunction is returned for a function index or name that was
// never registered.
var ErrUnknownFunction = errors.New("runtime: unknown function")

// ErrDeregistered is returned when an invocation targets a function whose
// slot has been deregistered — a client error (the function is gone), never
// a panic.
var ErrDeregistered = errors.New("runtime: function deregistered")

// Serving-path concurrency modes. ModeEpoch is the production path and the
// default: Invoke takes no global lock — one seqlock read, one stripe lock,
// one seqlock re-check — and calls no Observer. ModeSerial is the
// single-global-lock oracle that the differential harness and the bench/
// scale100k workload's bit-for-bit check compare it against.
const (
	ModeSerial = "serial"
	ModeEpoch  = "epoch"
)

// Config assembles a live runtime.
type Config struct {
	Catalog    *models.Catalog
	Assignment models.Assignment // one registered function per entry
	// Names optionally gives the initial functions their stable identities
	// (one per Assignment entry, validated by the identity package). When
	// nil, identity.DefaultNames applies. A runtime wrapping a policy that
	// was itself constructed with names (core.Config.Names, the *Named
	// baseline constructors) must use the same list, so both sides issue
	// identical slots during online registration.
	Names []string
	// Policy is the keep-alive controller (PULSE or any baseline). The
	// runtime owns it after construction; it must not be shared.
	//
	// Concurrency contract: KeepAlive and RecordInvocations are only ever
	// called inside the runtime's exclusive write window, one at a time,
	// with no invocation body in flight (in every mode — the epoch mode's
	// quiesce protocol re-establishes exactly the exclusion the RWMutex
	// barrier used to provide, see DESIGN.md §6.6). ColdVariant, however,
	// is called from concurrent Invokes of different functions and must be
	// safe for concurrent use against state that only
	// KeepAlive/RecordInvocations mutate — true of every policy in this
	// repo, whose ColdVariant reads construction-time or barrier-updated
	// state only.
	Policy cluster.Policy
	// Clock defaults to an uncompressed WallClock.
	Clock Clock
	// ExecScale scales simulated execution latencies applied via
	// Clock.Sleep; 1.0 sleeps full model latencies, 0 disables sleeping
	// (latencies still reported). Default 0.
	ExecScale float64
	// Cost prices keep-alive memory; defaults to the AWS-calibrated model.
	Cost cluster.CostModel
	// Observer, when non-nil, receives invocation and keep-alive samples
	// (per-function and per-variant) — attach a *telemetry.Telemetry to
	// expose labeled metrics and the decision log over the HTTP API.
	// Attaching one never changes which path Step runs: keep-alive samples
	// follow the sparse contract (telemetry.KeepAliveSample), so the minute
	// step stays O(active set) with the full chain listening.
	//
	// Delivery ordering: every sample is emitted inside a write window.
	// Invoke emits nothing; the Step closing a minute emits its invocations
	// (ascending slot order) before the policy records them, and Deregister
	// a departing slot's before its DeregisterSample. The minute still open
	// at Close reaches Stats but no Observer, as it reaches no policy.
	Observer telemetry.Observer
	// Tracer, when non-nil, samples 1-in-K invocations into span-shaped
	// trace records (see provenance.Tracer). With sampling disabled the
	// Invoke fast path pays one field read and allocates nothing
	// (pinned by TestInvokeTracerDisabledZeroAllocs); a nil Tracer pays a
	// nil check.
	Tracer *provenance.Tracer
	// Mode selects the serving-path architecture: ModeEpoch (default) or
	// ModeSerial. The two are behaviourally identical — proven by the
	// scenario harness (internal/core/scenario_test.go) — and differ only
	// in how Invoke synchronizes with the minute rollover.
	Mode string
}

// Invocation is the outcome of one function invocation.
type Invocation struct {
	Function    int
	Minute      int
	Variant     string
	AccuracyPct float64
	ServiceSec  float64 // modeled service time (cold start + execution if cold)
	Cold        bool
}

// Stats is a snapshot of runtime counters.
type Stats struct {
	Minute           int
	Invocations      int
	WarmStarts       int
	ColdStarts       int
	TotalServiceSec  float64
	AccuracySumPct   float64
	KeepAliveCostUSD float64
	CurrentKaMMB     float64
}

// MeanAccuracyPct returns delivered accuracy per invocation.
func (s Stats) MeanAccuracyPct() float64 {
	if s.Invocations == 0 {
		return 0
	}
	return s.AccuracySumPct / float64(s.Invocations)
}

// fnState is one function's serving state for the open minute, guarded by
// its own lock so invocations of different functions never contend. Stripes
// live in fixed-size slabs (Runtime.chunks) and are reached through a
// pointer slice: growing the population appends into the current slab (or
// starts a new one), never moves a stripe, so an epoch-mode reader holding
// yesterday's slice still mutates today's stripe — and a million-slot
// runtime costs one allocation per slab instead of one per function. The
// struct fills one cache line (TestFnStateIsOneCacheLine), keeping
// neighbouring stripes' locks off each other's lines; closed minutes live
// in the runtime's ledger.
type fnState struct {
	mu sync.Mutex

	// Identity, immutable once the slot is issued: the serving family and
	// the owning name (kept for ErrDeregistered messages — the registry's
	// slices may be appended to concurrently and are off-limits to
	// lock-free readers).
	family int
	name   string

	// active is the slot's tombstone flag, written only inside write
	// windows and read under the stripe lock.
	active bool

	// dirtyMark and dirtyNext make the stripe an intrusive node in the
	// runtime's dirty list — the minute's invoked slots, chained through
	// their stripes from the atomic dirtyHead. Both fields are written only
	// under mu (the mark guards double-pushing; the head CAS itself is
	// lock-free); Step's harvest walk consumes the chain and resets the
	// mark under the same lock. Idle slots are never touched. Lifecycle
	// write windows (beginWrite) walk the chain without unlinking it.
	dirtyMark bool
	dirtyNext int32

	// Minute-scoped serving state, guarded by mu.
	alive   int // variant kept alive this minute, NoVariant if none
	coldPod int // variant cold-started earlier this minute, NoVariant if none
	count   int // invocations observed this minute
}

// served names the variant st's open-minute invocations run on and whether
// the minute began cold: a cold start sets coldPod (only when nothing is
// alive), and every later invocation that minute runs warm on it; otherwise
// all run warm on alive (NoVariant before the first cold start).
func (st *fnState) served() (vi int, cold bool) {
	if st.coldPod != cluster.NoVariant {
		return st.coldPod, true
	}
	return st.alive, false
}

// fnChunk is the slab size for fnState storage: slabs are allocated at full
// capacity and filled by Register, so stripe addresses are stable for the
// lifetime of the runtime.
const fnChunk = 1024

// Runtime executes invocations against policy-managed warm containers and
// advances the policy once per simulated minute.
//
// Concurrency: the hot path is lock-free in the default epoch mode. A
// seqlock-style epoch counter (seq) is even while the world is stable and
// odd while a writer (Step, Stats, Close, Register, Deregister) owns it.
// Invoke loads an even seq, takes only its function's stripe lock,
// re-checks that seq is unchanged, and serves; if seq is odd or the
// re-check fails it releases, parks on the barrier until the window ends,
// and retries. Writers flip seq odd and then drain the dirty chain's
// stripe locks once: any invocation that passed its re-check before
// the flip holds its stripe lock, chained its stripe before that re-check
// (markDirty), and finishes first; every later invocation observes the odd
// (or advanced) seq and retries — so after the drain the writer
// owns all stripe and global state with no invocation body in flight,
// exactly the exclusion the old RWMutex minute barrier provided. Policy
// calls and every Observer sample therefore keep their serialized ordering
// contracts unchanged. Totals are integer counts in one ledger per family
// (cluster.Ledger), counted inside write windows as each function-minute
// closes and priced only when Stats reads them, so they are bit-identical
// across both modes and to the cluster engine's. See DESIGN.md §6.6 for the
// memory-ordering argument.
//
// ModeSerial (every Invoke takes the barrier exclusively) is the oracle;
// the differential harness proves the two agree exactly.
type Runtime struct {
	cfg    Config
	clock  Clock
	obs    telemetry.Observer // nil when uninstrumented
	mode   string
	tracer *provenance.Tracer // nil when untraced
	// selfWanted caches telemetry.WantsSelf(obs): whether Step should read
	// the clock and emit StepSamples.
	selfWanted bool

	// Self-observability counters, bumped on the invocation path only in
	// their rare branches (a seqlock retry, a contended stripe) so the
	// uncontended fast path stays untouched. lastRetries/lastWait are
	// writer-owned cursors for per-minute deltas.
	seqRetries  atomic.Uint64
	stripeWait  atomic.Uint64
	lastRetries uint64
	lastWait    uint64

	// barrier serializes writers against each other and against the
	// read-only accessor surface (Minute, NumFunctions, lookups — all
	// RLock). In serial mode it is additionally the minute barrier for
	// Invoke, taken exclusively; in epoch mode Invoke takes it shared only
	// to park after meeting a write window (its uncontended path never
	// touches it).
	barrier sync.RWMutex
	started atomic.Bool
	closed  atomic.Bool

	// seq is the seqlock epoch: even = stable, odd = write window open.
	// minuteA mirrors minute for the lock-free fast path; both are written
	// only inside write windows.
	seq     atomic.Uint64
	minuteA atomic.Int64

	minute    int
	fns       []*fnState
	chunks    [][]fnState                // slab storage backing fns
	fnsA      atomic.Pointer[[]*fnState] // epoch readers' view of fns
	countsBuf []int                      // reused Step scratch, reported to the policy
	kaMMB     float64

	// ledgers counts every held minute and closed function-minute, one per
	// family; statsBuf is Stats' copy with the open minute added. Both are
	// writer-owned.
	ledgers, statsBuf cluster.Ledgers

	// Idle-skip state. Every serving path chains the stripes it touches
	// into the dirty list, so Step harvests the minute's counts from the
	// chain instead of scanning every stripe, and decisions are applied over
	// the union of last minute's holders and the policy's candidate slots
	// (holders) — its active set when it tracks one, every slot otherwise.
	// All are writer-owned except dirtyHead (pushed by the serving paths).
	holders    cluster.HolderWalk
	dirtyHead  atomic.Int32 // top of the dirty chain; -1 when empty
	invokedBuf []int32      // reused: this minute's invoked slots, sorted

	// reg mirrors the policy's identity registry: name → slot for the API,
	// per-slot live flags. Mutated only under the exclusive barrier
	// (Register/Deregister), read under the shared one; the fast path uses
	// the per-stripe mirror (fnState.active/name) instead.
	reg *identity.Registry
}

// New builds a runtime. The policy's decision vector length must match the
// assignment.
func New(cfg Config) (*Runtime, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("runtime: nil policy")
	}
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("runtime: nil catalog")
	}
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assignment.Validate(cfg.Catalog, len(cfg.Assignment)); err != nil {
		return nil, err
	}
	if len(cfg.Assignment) == 0 {
		return nil, fmt.Errorf("runtime: no functions registered")
	}
	if cfg.ExecScale < 0 {
		return nil, fmt.Errorf("runtime: negative exec scale %v", cfg.ExecScale)
	}
	mode := cfg.Mode
	switch mode {
	case "":
		mode = ModeEpoch
	case ModeSerial, ModeEpoch:
	default:
		return nil, fmt.Errorf("runtime: unknown mode %q (want %s or %s)", mode, ModeEpoch, ModeSerial)
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock{}
	}
	if cfg.Cost.USDPerGBSecond == 0 {
		cfg.Cost = cluster.DefaultCostModel()
	}
	if cfg.Names == nil {
		cfg.Names = identity.DefaultNames(len(cfg.Assignment))
	}
	if len(cfg.Names) != len(cfg.Assignment) {
		return nil, fmt.Errorf("runtime: %d names for %d functions", len(cfg.Names), len(cfg.Assignment))
	}
	reg, err := identity.NewRegistry(cfg.Names)
	if err != nil {
		return nil, err
	}
	cfg.Assignment = append(models.Assignment(nil), cfg.Assignment...)
	cfg.Names = append([]string(nil), cfg.Names...)
	r := &Runtime{
		cfg:        cfg,
		clock:      cfg.Clock,
		obs:        cfg.Observer,
		mode:       mode,
		tracer:     cfg.Tracer,
		selfWanted: telemetry.WantsSelf(cfg.Observer),
		fns:        make([]*fnState, 0, len(cfg.Assignment)),
		countsBuf:  make([]int, len(cfg.Assignment)),
		ledgers:    cluster.NewLedgers(cfg.Catalog),
		statsBuf:   cluster.NewLedgers(cfg.Catalog),
		reg:        reg,
	}
	r.dirtyHead.Store(-1)
	for i := range cfg.Assignment {
		r.addSlot(cfg.Assignment[i], cfg.Names[i])
	}
	fns := r.fns
	r.fnsA.Store(&fns)
	return r, nil
}

// addSlot appends one stripe, placing it in the current slab (or a fresh
// one when full). Callers must hold the exclusive barrier (or be inside
// New) and republish fnsA afterwards.
func (r *Runtime) addSlot(family int, name string) {
	if k := len(r.chunks); k == 0 || len(r.chunks[k-1]) == cap(r.chunks[k-1]) {
		r.chunks = append(r.chunks, make([]fnState, 0, fnChunk))
	}
	ch := &r.chunks[len(r.chunks)-1]
	*ch = append(*ch, fnState{
		family:    family,
		name:      name,
		active:    true,
		dirtyNext: -1,
		alive:     cluster.NoVariant,
		coldPod:   cluster.NoVariant,
	})
	r.fns = append(r.fns, &(*ch)[len(*ch)-1])
}

// Mode names the serving-path architecture: "epoch" or "serial".
func (r *Runtime) Mode() string {
	return r.mode
}

// beginWrite opens a write window: with the exclusive barrier held, it
// flips the seqlock odd and drains the dirty chain. On return no invocation
// body is in flight and none can start until endWrite, so the caller owns
// all stripe and global state without taking stripe locks.
func (r *Runtime) beginWrite() {
	r.seq.Add(1)
	r.drainDirty()
}

// endWrite closes the write window, publishing every mutation made inside
// it: the seq store is the release the fast path's acquire loads pair
// with.
func (r *Runtime) endWrite() {
	r.seq.Add(1)
}

// drainDirty acquires and releases the stripe lock of every node on the
// dirty chain, leaving the chain linked for Step's harvest. Called with the
// seqlock odd: any invocation already past its seq re-check holds its
// stripe lock and — because markDirty runs under that lock before the
// re-check — is on the chain, so it is waited out here; any invocation not
// yet past the re-check will observe the odd (or advanced) seq and retry.
// Stripes off the chain have no body in flight and nothing to publish, so a
// lifecycle window costs O(stripes touched this minute), not O(population).
// Nodes pushed while we walk sit above the head we loaded and belong to
// bodies that will fail their re-check. The lock acquisition also carries
// the happens-before edge that makes the final bodies' writes visible.
func (r *Runtime) drainDirty() {
	for h := r.dirtyHead.Load(); h >= 0; {
		st := r.fns[h]
		st.mu.Lock()
		h = st.dirtyNext
		st.mu.Unlock()
	}
}

// ensureStarted pulls the first minute's keep-alive decisions exactly once.
// Lazily invoked so construction never calls into the policy; a closed
// runtime is never started (the caller will observe closed instead).
func (r *Runtime) ensureStarted() {
	if r.started.Load() {
		return
	}
	r.barrier.Lock()
	if !r.closed.Load() {
		r.startLocked()
	}
	r.barrier.Unlock()
}

// startLocked requires the exclusive barrier.
func (r *Runtime) startLocked() {
	if r.started.Load() {
		return
	}
	r.beginWrite()
	r.applyDecisionsLocked(r.cfg.Policy.KeepAlive(r.minute))
	r.endWrite()
	r.started.Store(true)
}

// applyDecisionsLocked requires an open write window (beginWrite): it
// writes the minute's alive variants and runs the engine's keep-alive
// accounting (cluster.AccountKeepAlive), which counts the minute's holders
// into the ledger and emits its keep-alive and minute samples. Only last
// minute's holders and this minute's are written: every other slot decided NoVariant and its stripe
// already rests there. Plain stripe writes are safe: the window is open, so
// no invocation body is in flight, and endWrite's release publishes them to
// the fast path's acquire loads.
func (r *Runtime) applyDecisionsLocked(decisions []int) {
	if len(decisions) != len(r.fns) {
		panic(fmt.Sprintf("runtime: policy returned %d decisions for %d functions", len(decisions), len(r.fns)))
	}
	for _, fn := range r.holders.Held() {
		r.fns[fn].alive = cluster.NoVariant
	}
	kam, _, err := cluster.AccountKeepAlive(r.cfg.Catalog, r.cfg.Cost, r.obs, r.cfg.Policy, &r.holders, r.minute, decisions, r.famOf, r.ledgers)
	if err != nil {
		panic(err.Error())
	}
	for _, fn := range r.holders.Held() {
		r.fns[fn].alive = decisions[fn]
	}
	r.kaMMB = kam
}

// famOf is cluster.AccountKeepAlive's view of slot fn: its family and
// whether it is still registered. Requires an open write window.
func (r *Runtime) famOf(fn int) (int, bool) {
	st := r.fns[fn]
	return st.family, st.active
}

// Close marks the runtime closed and releases resources owned by its
// policy: the runtime owns its Policy, so if the policy implements
// io.Closer (the sharded PULSE controller does — its worker goroutines
// stop here), it is closed. Close waits for in-flight invocations (the
// write window drains them) and is idempotent. Afterwards Invoke and Step
// return ErrClosed; Stats, Minute, and AliveVariant remain readable.
func (r *Runtime) Close() error {
	r.barrier.Lock()
	defer r.barrier.Unlock()
	if r.closed.Load() {
		return nil
	}
	r.beginWrite()
	r.closed.Store(true)
	r.endWrite()
	// The policy is closed outside the window: every retrying invocation
	// observes closed before it can reach ColdVariant again.
	if c, ok := r.cfg.Policy.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// NumFunctions returns the total number of function slots ever issued,
// active and tombstoned alike.
func (r *Runtime) NumFunctions() int {
	r.barrier.RLock()
	defer r.barrier.RUnlock()
	return len(r.cfg.Assignment)
}

// NumActive returns the number of currently registered functions.
func (r *Runtime) NumActive() int {
	r.barrier.RLock()
	defer r.barrier.RUnlock()
	return r.reg.NumActive()
}

// FamilyOf returns the model family serving function fn.
func (r *Runtime) FamilyOf(fn int) (models.Family, error) {
	r.barrier.RLock()
	defer r.barrier.RUnlock()
	if fn < 0 || fn >= len(r.cfg.Assignment) {
		return models.Family{}, fmt.Errorf("%w %d", ErrUnknownFunction, fn)
	}
	return r.cfg.Catalog.Families[r.cfg.Assignment[fn]], nil
}

// FunctionName returns the name that owns (or owned) slot fn; "" when out
// of range.
func (r *Runtime) FunctionName(fn int) string {
	r.barrier.RLock()
	defer r.barrier.RUnlock()
	return r.reg.Name(fn)
}

// FunctionActive reports whether slot fn is currently registered.
func (r *Runtime) FunctionActive(fn int) bool {
	r.barrier.RLock()
	defer r.barrier.RUnlock()
	return r.reg.Active(fn)
}

// LookupFunction returns the slot of an actively registered name.
func (r *Runtime) LookupFunction(name string) (int, bool) {
	r.barrier.RLock()
	defer r.barrier.RUnlock()
	return r.reg.Slot(name)
}

// serveLocked executes the invocation body for minute `minute` with st.mu
// held: tombstone check, warm/cold decision, the minute's count. It is the
// single body shared by both modes, so behavioural equivalence is by
// construction.
func (r *Runtime) serveLocked(st *fnState, fn, minute int) (Invocation, error) {
	if !st.active {
		return Invocation{}, fmt.Errorf("%w: %q (function %d)", ErrDeregistered, st.name, fn)
	}
	fam := &r.cfg.Catalog.Families[st.family]
	vi, _ := st.served()
	cold := vi == cluster.NoVariant
	if cold {
		if vi = r.cfg.Policy.ColdVariant(minute, fn); vi < 0 || vi >= fam.NumVariants() {
			return Invocation{}, fmt.Errorf("runtime: policy chose invalid cold variant %d for function %d", vi, fn)
		}
		st.coldPod = vi
	}
	v := &fam.Variants[vi]
	inv := Invocation{Function: fn, Minute: minute, Variant: v.Name, AccuracyPct: v.AccuracyPct, ServiceSec: v.ExecSec, Cold: cold}
	if cold {
		inv.ServiceSec = v.ColdServiceSec()
	}
	st.count++
	return inv, nil
}

// markDirty chains stripe fn into the dirty list: the collection of slots
// that served (or attempted to serve) since the last harvest. Must be
// called with st.mu held. In epoch mode the call must precede the seqlock
// re-check: sequential consistency then orders any counted body's push
// before its re-check load, before the writer's seq flip, before the
// writer's chain Swap — so every stripe with an in-flight counted body is
// in the chain the harvest walks (and waits out via its stripe lock). A
// push whose re-check then fails leaves a count-0 node, which the harvest
// skips; no undo is needed.
func (r *Runtime) markDirty(st *fnState, fn int) {
	if st.dirtyMark {
		return
	}
	st.dirtyMark = true
	for {
		h := r.dirtyHead.Load()
		st.dirtyNext = h
		if r.dirtyHead.CompareAndSwap(h, int32(fn)) {
			return
		}
	}
}

// invokeEpoch is the lock-free fast path: load an even seq, take the
// stripe lock, re-check seq, serve. An odd seq or a failed re-check means a
// write window opened (or completed) in between — release, park until the
// window ends, and retry, so a counted invocation is guaranteed to have
// executed entirely inside one stable epoch, i.e. entirely inside one
// minute. The retry loop allocates nothing (pinned by
// TestEpochInvokeZeroAllocs). It reports how many times it retried (for
// sampled traces); retries and contended stripe acquisitions also feed the
// self-observability counters, paid only on their rare branches.
func (r *Runtime) invokeEpoch(fn int) (Invocation, int, error) {
	retries := 0
	for {
		e := r.seq.Load()
		if e&1 != 0 {
			// Park: every write window runs under the exclusive barrier, so
			// taking it shared sleeps until the window ends, leaving the
			// core to the writer (and a tournament arena's walk helpers)
			// instead of spinning on it.
			retries++
			r.barrier.RLock()
			r.barrier.RUnlock()
			continue
		}
		if r.closed.Load() {
			if retries > 0 {
				r.seqRetries.Add(uint64(retries))
			}
			return Invocation{}, retries, ErrClosed
		}
		fns := *r.fnsA.Load()
		if fn < 0 || fn >= len(fns) {
			if retries > 0 {
				r.seqRetries.Add(uint64(retries))
			}
			return Invocation{}, retries, fmt.Errorf("%w %d", ErrUnknownFunction, fn)
		}
		st := fns[fn]
		if !st.mu.TryLock() {
			r.stripeWait.Add(1)
			st.mu.Lock()
		}
		r.markDirty(st, fn)
		if r.seq.Load() != e {
			st.mu.Unlock()
			retries++
			r.barrier.RLock()
			r.barrier.RUnlock()
			continue
		}
		// Stable epoch: the writer that will end this minute must drain
		// st.mu before touching anything, so minuteA, st.alive, and the
		// counters below all belong to the same minute for the duration of
		// this body.
		inv, err := r.serveLocked(st, fn, int(r.minuteA.Load()))
		st.mu.Unlock()
		if retries > 0 {
			r.seqRetries.Add(uint64(retries))
		}
		return inv, retries, err
	}
}

// invokeSerial is the oracle path: the minute barrier held exclusively,
// so one invocation runs at a time and none overlaps a write window.
func (r *Runtime) invokeSerial(fn int) (Invocation, error) {
	r.barrier.Lock()
	defer r.barrier.Unlock()
	if r.closed.Load() {
		return Invocation{}, ErrClosed
	}
	if fn < 0 || fn >= len(r.fns) {
		return Invocation{}, fmt.Errorf("%w %d", ErrUnknownFunction, fn)
	}
	st := r.fns[fn]
	st.mu.Lock()
	defer st.mu.Unlock()
	r.markDirty(st, fn)
	return r.serveLocked(st, fn, r.minute)
}

// Invoke executes one invocation of function fn during the current minute.
// Warm invocations run on the kept-alive variant; cold invocations create a
// container of the policy's cold variant, pay its cold-start latency, and
// leave it warm for the remainder of the minute.
//
// Invoke is safe for arbitrary concurrency: in the default epoch mode the
// runtime itself takes no global lock — invocations of different functions
// share nothing but a read of the epoch counter, and invocations of the same
// function serialize on that function's stripe. Invoke does no observer
// work: the stripe counts the minute's invocations and remembers a cold
// start, and the Step that closes the minute hands them to the Observer —
// one cold sample and one warm batch per function-minute, as the cluster
// engine emits them. Every invocation lands in exactly
// one minute (the seqlock re-check retries any invocation that straddles a
// minute rollover). Invoking a deregistered function returns an error
// wrapping ErrDeregistered — the tombstone flag is read under the stripe
// lock inside a stable epoch, so it is race-free against concurrent
// Deregister calls.
func (r *Runtime) Invoke(fn int) (Invocation, error) {
	r.ensureStarted()
	// Tracer sampling is decided up front, before the outcome is known, so
	// the number of recorded traces depends only on how many Invoke calls
	// arrived — identical across modes by construction. With sampling
	// disabled Sample is a single field read.
	sampled := r.tracer.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	var (
		inv     Invocation
		retries int
		err     error
	)
	if r.mode == ModeEpoch {
		inv, retries, err = r.invokeEpoch(fn)
	} else {
		inv, err = r.invokeSerial(fn)
	}
	if sampled {
		tr := provenance.Trace{
			Minute:         inv.Minute,
			Function:       fn,
			Stripe:         fn,
			Variant:        inv.Variant,
			Cold:           inv.Cold,
			SeqlockRetries: retries,
			LatencyUs:      float64(time.Since(t0)) / float64(time.Microsecond),
		}
		if err != nil {
			tr.Error = err.Error()
		}
		r.tracer.Record(tr)
	}
	if err != nil {
		return Invocation{}, err
	}

	// Model the execution latency outside the locks so concurrent
	// invocations proceed.
	if scale := r.cfg.ExecScale; scale > 0 {
		r.clock.Sleep(time.Duration(inv.ServiceSec * scale * float64(time.Second)))
	}
	return inv, nil
}

// Step closes the current minute — reporting its invocation counts to the
// policy — and opens the next one with fresh keep-alive decisions. A
// driver (ticker goroutine or test) calls it once per simulated minute.
//
// Step is the minute barrier: its write window waits for every in-flight
// invocation and excludes new ones for its duration, so each invocation
// lands entirely in one minute and the policy sees a consistent count
// vector. It returns ErrClosed after Close.
func (r *Runtime) Step() error {
	r.barrier.Lock()
	defer r.barrier.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	r.startLocked()
	// Self-observability: time the barrier hold when (and only when) a
	// chained observer consumes self samples — WantsSelf is cached at
	// construction, so uninstrumented runtimes never read the clock here.
	var t0 time.Time
	if r.selfWanted {
		t0 = time.Now()
	}
	// Open the window manually: the harvest walk below is the drain. Only
	// the stripes on the dirty chain served this minute, and every stripe
	// with an in-flight counted body is on it (see markDirty), so walking
	// the chain is both the count harvest and the drain — idle slots are
	// never touched. countsBuf holds all zeros between minutes; harvested
	// entries are reset after the policy call. Pushes racing the odd window
	// land on the fresh chain with their counts intact and are harvested
	// next minute — their bodies failed the re-check, so nothing was
	// counted now.
	r.seq.Add(1)
	r.invokedBuf = r.invokedBuf[:0]
	for h := r.dirtyHead.Swap(-1); h >= 0; {
		st := r.fns[h]
		st.mu.Lock()
		if st.count > 0 {
			r.countsBuf[h] = st.count
			r.invokedBuf = append(r.invokedBuf, h)
			st.count = 0
		}
		st.dirtyMark = false
		next := st.dirtyNext
		st.mu.Unlock()
		h = next
	}
	// Count and emit every invoked live slot's minute, ascending, before
	// the policy records it (a departed slot's closed with its Deregister).
	slices.Sort(r.invokedBuf)
	for _, fn := range r.invokedBuf {
		st := r.fns[fn]
		if st.active {
			r.closeServed(st, int(fn), r.countsBuf[fn])
		}
		st.coldPod = cluster.NoVariant
	}
	cluster.Record(r.cfg.Policy, r.minute, r.countsBuf, r.invokedBuf)
	for _, fn := range r.invokedBuf {
		r.countsBuf[fn] = 0
	}
	r.minute++
	r.minuteA.Store(int64(r.minute))
	r.applyDecisionsLocked(r.cfg.Policy.KeepAlive(r.minute))
	if r.selfWanted {
		// Emitted inside the write window, after the minute's keep-alive
		// and minute samples, reporting the minute that just closed and
		// the hot-path counter deltas accumulated during it.
		retries, wait := r.seqRetries.Load(), r.stripeWait.Load()
		telemetry.ObserveStep(r.obs, telemetry.StepSample{
			Minute:           r.minute - 1,
			Seconds:          time.Since(t0).Seconds(),
			SeqlockRetries:   retries - r.lastRetries,
			StripeContention: wait - r.lastWait,
		})
		r.lastRetries, r.lastWait = retries, wait
	}
	r.endWrite()
	return nil
}

// closeServed closes slot fn's open minute of count invocations: it counts
// them into the ledger and emits them to the Observer. Requires an open
// write window.
func (r *Runtime) closeServed(st *fnState, fn, count int) {
	vi, cold := st.served()
	r.ledgers[st.family].ServeMinute(vi, count, cold)
	cluster.ObserveServed(r.obs, r.minute, fn, count, &r.cfg.Catalog.Families[st.family].Variants[vi], cold)
}

// SeqlockRetries returns the cumulative number of epoch-mode Invoke
// fast-path retries (seqlock re-check failures and odd-seq loads, each
// followed by parking until the write window ends) — 0 in serial mode,
// which never retries.
func (r *Runtime) SeqlockRetries() uint64 { return r.seqRetries.Load() }

// StripeContention returns the cumulative number of Invoke stripe-lock
// acquisitions that found the stripe already held — 0 in serial mode,
// whose exclusive barrier admits one invocation at a time.
func (r *Runtime) StripeContention() uint64 { return r.stripeWait.Load() }

// Tracer returns the sampled invocation tracer attached at construction
// (nil when untraced).
func (r *Runtime) Tracer() *provenance.Tracer { return r.tracer }

// Minute returns the current simulated minute.
func (r *Runtime) Minute() int {
	r.barrier.RLock()
	defer r.barrier.RUnlock()
	return r.minute
}

// Stats returns a consistent snapshot of the runtime counters: the ledger
// plus the open minute, priced. The open minute is read off the dirty
// chain inside a write window, so a read costs O(slots invoked this minute),
// not O(population), and no invocation is mid-body while it is counted; a
// slot deregistered this minute was counted into the ledger then. It
// remains available after Close, open minute included.
func (r *Runtime) Stats() Stats {
	r.barrier.Lock()
	defer r.barrier.Unlock()
	for f, l := range r.ledgers {
		copy(r.statsBuf[f], l)
	}
	// The chain walk is the drain: locking a stripe waits out its in-flight
	// invocation, and the odd seq fails every later one's re-check.
	r.seq.Add(1)
	for h := r.dirtyHead.Load(); h >= 0; {
		st := r.fns[h]
		st.mu.Lock()
		if st.count > 0 && st.active {
			vi, cold := st.served()
			r.statsBuf[st.family].ServeMinute(vi, st.count, cold)
		}
		h = st.dirtyNext
		st.mu.Unlock()
	}
	r.endWrite()
	t := r.statsBuf.Price(r.cfg.Catalog, r.cfg.Cost)
	return Stats{
		Minute:           r.minute,
		Invocations:      t.Invocations,
		WarmStarts:       t.WarmStarts,
		ColdStarts:       t.ColdStarts,
		TotalServiceSec:  t.ServiceSec,
		AccuracySumPct:   t.AccuracySumPct,
		KeepAliveCostUSD: t.KeepAliveCostUSD,
		CurrentKaMMB:     r.kaMMB,
	}
}

// AliveVariant reports which variant of fn is currently kept alive
// (cluster.NoVariant if none). It remains available after Close.
func (r *Runtime) AliveVariant(fn int) (int, error) {
	r.ensureStarted()
	r.barrier.RLock()
	defer r.barrier.RUnlock()
	if fn < 0 || fn >= len(r.fns) {
		return 0, fmt.Errorf("%w %d", ErrUnknownFunction, fn)
	}
	st := r.fns[fn]
	st.mu.Lock()
	v := st.alive
	st.mu.Unlock()
	return v, nil
}

// Ticker advances the runtime once per interval until the context is
// cancelled — the production driver cmd/pulsed uses, with the interval set
// to one (possibly compressed) minute. It returns ErrClosed when the
// runtime is closed underneath it.
func Ticker(ctx context.Context, r *Runtime, interval time.Duration) error {
	if r == nil {
		return fmt.Errorf("runtime: nil runtime")
	}
	if interval <= 0 {
		return fmt.Errorf("runtime: non-positive tick interval %v", interval)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if err := r.Step(); err != nil {
				return err
			}
		}
	}
}
