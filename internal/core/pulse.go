package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/forkjoin"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// Config parameterizes a PULSE instance. Zero values select the paper's
// defaults where they exist.
type Config struct {
	Catalog    *models.Catalog
	Assignment models.Assignment

	// Names are the functions' stable identities, one per assignment entry
	// (nil selects fn-0 … fn-{n-1}). Names key snapshots and online
	// registration: RegisterFunction and DeregisterFunction refer to
	// functions by name, and Restore maps snapshot state back to slots by
	// name rather than by index.
	Names []string

	// Window is the keep-alive period in minutes (default 10).
	Window int
	// LocalWindow is the sliding local history length in minutes used by
	// both the function-centric probabilities and Algorithm 1's prior
	// keep-alive memory (default 60; Figure 12 sweeps 10/60/120).
	LocalWindow int
	// KaMThreshold is Algorithm 1's KM_T as a fraction (default 0.10;
	// Figure 11 sweeps 0.05/0.10/0.15).
	KaMThreshold float64
	// Technique is the probability-threshold rule (default TechniqueT1;
	// Figure 10 compares T1 and T2).
	Technique ThresholdTechnique
	// Shards is the number of parallel shards the controller partitions
	// its functions into. Each shard owns its functions' histories and
	// plan rings and is one task of the minute's record step, which runs
	// on the process's fork-join pool (internal/forkjoin): up to
	// min(GOMAXPROCS, Shards) goroutines, the caller's included. The global
	// peak-detect/flatten step (Algorithms 1 and 2) always runs
	// single-threaded on the merged view, so decisions are identical for
	// every shard count. 0 selects GOMAXPROCS; 1 runs every shard on the
	// caller; the count is capped at the number of functions.
	Shards int

	// DisableGlobalOpt turns off cross-function optimization, leaving only
	// the function-centric optimizer — the Figure 4(b) configuration.
	DisableGlobalOpt bool
	// DisablePriorityTerm drops Pr from Uv (ablation).
	DisablePriorityTerm bool
	// Blend selects the history mix feeding probabilities (ablation).
	Blend HistoryBlend
	// PriorMode selects Algorithm 1's prior derivation (ablation).
	PriorMode PriorMode
	// Step selects the downgrade granularity (ablation).
	Step DowngradeStep
	// RandomDowngradeSeed, when non-zero, replaces utility-based victim
	// selection with the paper's strawman of random downgrades during
	// peaks (ablation). The seed keeps runs reproducible.
	RandomDowngradeSeed int64

	// Observer, when non-nil, receives every controller decision: the
	// per-function keep-alive schedules, Algorithm 1 peak enter/exit
	// transitions, and each Algorithm 2 downgrade with its utility
	// breakdown. nil disables instrumentation at zero cost.
	Observer telemetry.Observer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Window <= 0 {
		out.Window = cluster.DefaultKeepAliveWindow
	}
	if out.LocalWindow <= 0 {
		out.LocalWindow = 60
	}
	if out.KaMThreshold <= 0 {
		out.KaMThreshold = 0.10
	}
	if out.Technique == nil {
		out.Technique = TechniqueT1{}
	}
	return out
}

// Pulse is the full PULSE keep-alive policy (Figure 3): function-centric
// optimization plans a variant per minute of each function's keep-alive
// window; when Algorithm 1 detects a keep-alive memory peak, Algorithm 2's
// utility-driven downgrades flatten it. Pulse implements cluster.Policy.
//
// Per-function state lives in flat slot-indexed arenas (histArena,
// planStore) rather than per-function heap objects, and the per-minute
// paths iterate the incremental active set — the slots currently holding a
// plan row — instead of every registered slot, whoever observes.
type Pulse struct {
	cfg      Config
	reg      *identity.Registry
	hist     *histArena
	detector *PeakDetector
	global   *GlobalOptimizer
	plans    *planStore
	active   *activeSet
	out      []int
	ip       []float64

	// invokedBuf is the reusable ascending list of slots invoked this
	// minute, rebuilt by RecordInvocations / RecordInvocationsSparse.
	invokedBuf []int32

	// rec is the record step's task state; recTask is its shard task, stored
	// once so a forkjoin.Run allocates nothing.
	rec     *recorder
	recTask func(i int)
	// selfWanted caches telemetry.WantsSelf(cfg.Observer): whether the
	// per-minute scans should read the clock and emit scan/flush duration
	// samples. False keeps the scan paths free of clock reads.
	selfWanted bool
	// reqShards is the requested shard count with 0 resolved to
	// GOMAXPROCS; the effective count in cfg.Shards is re-resolved against
	// the slot count whenever registration grows the per-function state.
	reqShards int

	totalDowngrades int
	peakMinutes     int
	inPeak          bool // inside an Algorithm 1 peak episode (observability only)
}

// New builds a PULSE policy instance.
func New(cfg Config) (*Pulse, error) {
	cfg = cfg.withDefaults()
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("core: nil catalog")
	}
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assignment.Validate(cfg.Catalog, len(cfg.Assignment)); err != nil {
		return nil, err
	}
	if len(cfg.Assignment) == 0 {
		return nil, fmt.Errorf("core: empty assignment")
	}
	n := len(cfg.Assignment)
	// Own the per-function config slices: registration appends to them, and
	// the caller's backing arrays must not be written through.
	cfg.Assignment = append(models.Assignment(nil), cfg.Assignment...)
	names := cfg.Names
	if names == nil {
		names = identity.DefaultNames(n)
	}
	if len(names) != n {
		return nil, fmt.Errorf("core: %d names for %d functions", len(names), n)
	}
	reg, err := identity.NewRegistry(names)
	if err != nil {
		return nil, err
	}
	cfg.Names = append([]string(nil), names...)
	p := &Pulse{
		cfg:    cfg,
		reg:    reg,
		plans:  newPlanStore(cfg.Window, n),
		active: newActiveSet(n),
		out:    make([]int, n),
		ip:     make([]float64, n),
	}
	if p.hist, err = newHistArena(cfg.LocalWindow, n); err != nil {
		return nil, err
	}
	// Slots outside the active set are never rewritten by the sparse
	// gather, so the decision vector's resting state must be NoVariant.
	for i := range p.out {
		p.out[i] = cluster.NoVariant
	}
	if p.detector, err = NewPeakDetector(cfg.KaMThreshold, cfg.LocalWindow, cfg.PriorMode); err != nil {
		return nil, err
	}
	if p.global, err = NewGlobalOptimizer(cfg.Catalog, cfg.Assignment, cfg.Step, cfg.DisablePriorityTerm); err != nil {
		return nil, err
	}
	if cfg.RandomDowngradeSeed != 0 {
		p.global.UseRandomSelection(cfg.RandomDowngradeSeed)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: negative shard count %d", cfg.Shards)
	}
	p.selfWanted = telemetry.WantsSelf(cfg.Observer)
	p.reqShards = cfg.Shards
	if p.reqShards == 0 {
		p.reqShards = runtime.GOMAXPROCS(0)
	}
	p.rec = &recorder{
		hist:      p.hist,
		plans:     p.plans,
		catalog:   cfg.Catalog,
		window:    cfg.Window,
		blend:     cfg.Blend,
		technique: cfg.Technique,
		observe:   cfg.Observer != nil,
		timing:    p.selfWanted,
	}
	p.recTask = p.rec.task
	p.resolveShards()
	return p, nil
}

// resolveShards re-resolves the effective shard count against the current
// slot count and re-partitions the recorder over the grown per-function
// state.
func (p *Pulse) resolveShards() {
	p.cfg.Shards = min(p.reqShards, len(p.out))
	p.rec.partition(p.cfg.Shards, len(p.out))
}

// Close does nothing and returns nil. The record step runs on the
// process's fork-join pool, so a controller owns no goroutine or other
// resource to release; Close remains for callers that still call it.
func (p *Pulse) Close() error { return nil }

// Shards returns the effective shard count (≥ 1).
func (p *Pulse) Shards() int { return p.cfg.Shards }

// Name implements cluster.Policy.
func (p *Pulse) Name() string {
	name := "pulse-" + p.cfg.Technique.Name()
	if p.cfg.DisableGlobalOpt {
		name += "-noglobal"
	}
	return name
}

// Config returns the effective (defaulted) configuration.
func (p *Pulse) Config() Config { return p.cfg }

// TotalDowngrades returns the number of Algorithm 2 downgrades applied so
// far.
func (p *Pulse) TotalDowngrades() int { return p.totalDowngrades }

// PeakMinutes returns the number of minutes in which a peak was detected
// and flattening ran.
func (p *Pulse) PeakMinutes() int { return p.peakMinutes }

// KeepAlive implements cluster.Policy: it assembles the minute's candidate
// keep-alive set from the per-function plans, runs the global optimizer if
// the minute is a peak, commits the final keep-alive memory to the peak
// detector, and returns the decisions.
//
// The gather first compacts the active set — slots whose plan drained
// before this minute release their plan row and pin their decision to
// NoVariant — then evaluates only the remaining active slots; every other
// slot's decision rests at NoVariant.
func (p *Pulse) KeepAlive(t int) []int {
	p.compactActive(t)
	var t0 time.Time
	if p.selfWanted {
		t0 = time.Now()
	}
	// Always on the coordinator: the active list is short and already
	// ascending, so there is nothing for the fork-join pool to win.
	for _, fn32 := range p.active.list {
		fn := int(fn32)
		v, prob, ok := p.plans.get(fn, t)
		if !ok {
			v, prob = cluster.NoVariant, 0
		}
		p.out[fn] = v
		p.ip[fn] = prob
	}
	if p.selfWanted {
		telemetry.ObserveScan(p.cfg.Observer, telemetry.ScanSample{
			Minute: t, Shard: -1, Functions: len(p.active.list), Seconds: time.Since(t0).Seconds(),
		})
	}

	if !p.cfg.DisableGlobalOpt {
		kam := p.keptAliveMB()
		if p.detector.IsPeak(kam) {
			p.peakMinutes++
			target := p.detector.FlattenTarget()
			downs, err := p.global.flatten(p.out, p.ip, target, p.active.list)
			if err != nil {
				panic("core: flatten failed on validated state: " + err.Error())
			}
			p.totalDowngrades += len(downs)
			if obs := p.cfg.Observer; obs != nil {
				if !p.inPeak {
					obs.ObservePeak(telemetry.PeakSample{
						Minute:      t,
						Enter:       true,
						KeepAliveMB: kam,
						PriorMB:     p.detector.PriorKaM(),
						TargetMB:    target,
						Downgrades:  len(downs),
					})
				}
				for _, d := range downs {
					obs.ObserveDowngrade(telemetry.DowngradeSample{
						Minute:      t,
						Function:    d.Function,
						FromVariant: d.FromVariant,
						ToVariant:   d.ToVariant,
						Ai:          d.Ai,
						Pr:          d.Pr,
						Ip:          d.Ip,
					})
				}
			}
			p.inPeak = true
		} else if p.inPeak {
			p.inPeak = false
			if obs := p.cfg.Observer; obs != nil {
				obs.ObservePeak(telemetry.PeakSample{
					Minute:      t,
					Enter:       false,
					KeepAliveMB: kam,
					PriorMB:     p.detector.PriorKaM(),
					TargetMB:    p.detector.FlattenTarget(),
				})
			}
		}
	}

	if err := p.detector.Record(p.keptAliveMB()); err != nil {
		panic("core: detector record: " + err.Error())
	}
	return p.out
}

// keptAliveMB sums the current decision vector's memory over the active
// set; every unlisted slot is NoVariant.
func (p *Pulse) keptAliveMB() float64 {
	kam, err := p.global.keptAliveMB(p.out, p.active.list)
	if err != nil {
		// Plans only ever hold validated variant indices.
		panic("core: invalid internal plan: " + err.Error())
	}
	return kam
}

// compactActive releases the plan row of every active slot whose plan
// drained before minute t and pins its decision to NoVariant, filtering
// the sorted active list in place (order preserved). A released row yields
// exactly what its expired ring cells would have: NoVariant at every
// future minute.
func (p *Pulse) compactActive(t int) {
	kept := p.active.list[:0]
	for _, fn32 := range p.active.list {
		fn := int(fn32)
		if p.plans.expiry[fn] >= t {
			kept = append(kept, fn32)
			continue
		}
		p.plans.releaseRow(fn)
		p.active.member[fn] = false
		p.out[fn] = cluster.NoVariant
		p.ip[fn] = 0
	}
	p.active.list = kept
}

// ActiveSlots returns the sorted slot indices that may hold a non-NoVariant
// decision, valid from the return of KeepAlive(t) until the next call into
// the policy. Every slot not listed is guaranteed NoVariant. The slice
// aliases controller state: callers must not retain it across minutes. It
// implements cluster.ActiveSetPolicy.
func (p *Pulse) ActiveSlots() []int32 { return p.active.list }

// ColdVariant implements cluster.Policy: invocations that arrive cold run
// the function's standard (highest-quality) model, matching the fixed
// policy's behaviour so accuracy differences come only from keep-alive
// decisions.
func (p *Pulse) ColdVariant(_, fn int) int {
	return p.cfg.Catalog.Families[p.cfg.Assignment[fn]].NumVariants() - 1
}

// RecordInvocations implements cluster.Policy: every function invoked this
// minute gets its history updated and a fresh keep-alive plan for the next
// window minutes, one variant per offset, from the threshold technique.
//
// The per-function work runs as one fork-join task per shard; each shard
// stages its Observer events in a private buffer that is flushed here, in
// shard order, once the minute barrier is reached — so the audit log sees
// the exact event sequence a serial controller emits.
func (p *Pulse) RecordInvocations(t int, counts []int) {
	p.invokedBuf = p.invokedBuf[:0]
	active := p.reg.ActiveSlice()
	for fn, c := range counts {
		if c == 0 || !active[fn] {
			continue
		}
		p.invokedBuf = append(p.invokedBuf, int32(fn))
	}
	p.recordInvoked(t)
}

// RecordInvocationsSparse is the active-set fast path of RecordInvocations:
// invoked lists, in strictly ascending slot order, the functions with a
// nonzero count, so the controller touches O(invoked) state instead of
// scanning the dense counts vector. Decisions and learned state are
// bit-identical to the dense entry point. It implements
// cluster.ActiveSetPolicy.
func (p *Pulse) RecordInvocationsSparse(t int, counts []int, invoked []int32) {
	p.invokedBuf = p.invokedBuf[:0]
	active := p.reg.ActiveSlice()
	prev := int32(-1)
	for _, fn := range invoked {
		if fn <= prev || int(fn) >= len(counts) {
			panic("core: invoked list not strictly ascending within the population")
		}
		prev = fn
		if counts[fn] == 0 || !active[fn] {
			continue
		}
		p.invokedBuf = append(p.invokedBuf, fn)
	}
	p.recordInvoked(t)
}

// recordInvoked runs the function-centric optimizer for the slots in
// p.invokedBuf (ascending): plan rows are acquired and the active set
// updated on the coordinator, then the history/schedule work runs as the
// shards' fork-join tasks, and their errors, scan timings and staged
// events are reported in shard order after the barrier.
func (p *Pulse) recordInvoked(t int) {
	invoked := p.invokedBuf
	added := false
	for _, fn32 := range invoked {
		fn := int(fn32)
		p.plans.ensureRow(fn)
		p.plans.expiry[fn] = t + p.cfg.Window
		if p.active.add(fn) {
			added = true
		}
	}
	if added {
		p.active.sort()
	}

	r := p.rec
	r.t, r.invoked, r.assignment = t, invoked, p.cfg.Assignment
	forkjoin.Run(len(r.shards), p.recTask)
	for i := range r.shards {
		if err := r.shards[i].err; err != nil {
			panic("core: " + err.Error())
		}
	}
	obs := p.cfg.Observer
	if obs == nil {
		return
	}
	var t0 time.Time
	if p.selfWanted {
		for i := range r.shards {
			s := &r.shards[i]
			telemetry.ObserveScan(obs, telemetry.ScanSample{
				Minute: t, Shard: i, Functions: s.hi - s.lo, Seconds: s.scanSec,
			})
		}
		t0 = time.Now()
	}
	for i := range r.shards {
		r.shards[i].buf.FlushTo(obs)
	}
	if p.selfWanted {
		telemetry.ObserveFlush(obs, telemetry.FlushSample{
			Minute: t, Seconds: time.Since(t0).Seconds(),
		})
	}
}

// History exposes function fn's inter-arrival history (for reports/tests).
// The returned view reads the controller's history arena directly.
func (p *Pulse) History(fn int) *History {
	if fn < 0 || fn >= p.hist.n {
		return nil
	}
	return &History{ar: p.hist, fn: fn}
}

// PriorityCount returns function fn's downgrade count from Algorithm 2's
// priority structure — how often its model has been downgraded during
// peaks.
func (p *Pulse) PriorityCount(fn int) float64 { return p.global.Priority().Count(fn) }

var _ cluster.ActiveSetPolicy = (*Pulse)(nil)
