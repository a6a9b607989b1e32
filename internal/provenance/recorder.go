package provenance

import (
	"fmt"
	"math"
	"sync"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// noVariant mirrors cluster.NoVariant without importing the cluster
// package (keep-alive samples encode "left cold" as variant -1).
const noVariant = -1

// DefaultWindow is the per-function decision-ring capacity when
// RecorderConfig leaves Window zero.
const DefaultWindow = 64

// selfCap bounds the recorder's self-observability minute rings — one day
// of minutes, matching the attribution accountant's horizon.
const selfCap = 1440

// Self-series metric names served through /timeseries.
const (
	// MetricStepLatencyUs is the minute barrier's hold time, microseconds.
	MetricStepLatencyUs = "step_latency_us"
	// MetricSeqlockRetries is the number of invocation fast-path seqlock
	// retries accumulated during each minute.
	MetricSeqlockRetries = "seqlock_retries"
)

// SelfMetrics lists the self-series metric names in serving order.
func SelfMetrics() []string { return []string{MetricStepLatencyUs, MetricSeqlockRetries} }

// Decision is the provenance of one keep-alive choice: everything
// Algorithm 1 and Algorithm 2 saw and produced for one function in one
// minute.
type Decision struct {
	Minute int `json:"minute"`
	// Resting marks a synthesized answer: the function had no recorded
	// decision for the minute because it was resting cold with no plan (the
	// sparse KeepAlive contract reports holders and release edges only).
	Resting bool `json:"resting,omitempty"`
	// Slot is the dense function slot that held the identity when the
	// decision was made (slots change when a name re-registers).
	Slot int `json:"slot"`

	// Chosen is the variant actually kept alive (-1 = left cold) and MemMB
	// its keep-alive memory.
	Chosen     int     `json:"chosen_variant"`
	ChosenName string  `json:"chosen_variant_name,omitempty"`
	MemMB      float64 `json:"mem_mb"`

	// Planned is the variant the function-centric schedule committed for
	// this minute — the choice the policy would have made unconstrained.
	// It equals Chosen except when a peak downgraded the function. Prob is
	// the history-derived invocation probability that selected it, and
	// PlannedAt the minute the plan was committed (-1 when no plan covered
	// this minute — e.g. the fixed baseline, or minute 0).
	Planned     int     `json:"planned_variant"`
	PlannedName string  `json:"planned_variant_name,omitempty"`
	Prob        float64 `json:"invocation_probability"`
	PlannedAt   int     `json:"planned_at_minute"`

	// Downgraded is set when Algorithm 2 moved the function off its
	// planned variant during a peak; Ai/Pr/Ip is the utility breakdown
	// (accuracy impact, priority rank, invocation probability) whose sum
	// Uv selected it as a victim.
	Downgraded bool    `json:"downgraded"`
	Ai         float64 `json:"ai,omitempty"`
	Pr         float64 `json:"pr,omitempty"`
	Ip         float64 `json:"ip,omitempty"`
	Uv         float64 `json:"uv,omitempty"`

	// Peak reports whether the minute sat inside an Algorithm 1 peak
	// episode; PriorMB/TargetMB are the episode's detector prior and
	// flatten target.
	Peak     bool    `json:"peak"`
	PriorMB  float64 `json:"peak_prior_mb,omitempty"`
	TargetMB float64 `json:"peak_target_mb,omitempty"`

	// BudgetBeforeMB and BudgetAfterMB are the cluster keep-alive memory
	// the minute would have consumed unconstrained and what it consumed
	// after downgrades (equal outside peaks).
	BudgetBeforeMB float64 `json:"budget_before_mb"`
	BudgetAfterMB  float64 `json:"budget_after_mb"`
}

// Explanation is the /why response: one function's recent non-resting
// decisions, newest last. Minutes absent from the list between two entries
// (or after the last) are minutes the function rested cold.
type Explanation struct {
	Function  string     `json:"function"`
	Slot      int        `json:"slot"`
	Family    string     `json:"family"`
	Active    bool       `json:"active"`
	Window    int        `json:"window"`
	Decisions []Decision `json:"decisions"`
}

// Point is one self-series sample.
type Point struct {
	Minute int     `json:"minute"`
	Value  float64 `json:"value"`
}

// Limits of the compact record's index types: NewRecorder rejects a catalog
// past them, so every family and variant index a sample can validly carry
// fits.
const (
	maxFamilies   = 1 << 14      // record.famFlags keeps 14 bits of family index
	maxVariants   = math.MaxInt8 // variant indices are int8 (noVariant = -1)
	recDowngraded = 1 << 14      // record.famFlags: Algorithm 2 moved the function
	recPeak       = 1 << 15      // record.famFlags: the minute sat inside a peak episode
)

// record is a Decision as the rings keep it: narrow integers, variant
// *indices* beside the family they were recorded under, and the floats.
// Variant names and Uv = Ai+Pr+Ip are what the catalog and three of the
// floats can say again, so they are materialized when a ring is read
// (Recorder.decision) — the catalog is immutable, so the answer is the one a
// name stored at write time would have given.
type record struct {
	minute, slot, plannedAt int32
	famFlags                uint16 // family index | recDowngraded | recPeak
	chosen, planned         int8

	memMB, prob                   float64
	ai, pr, ip                    float64
	priorMB, targetMB             float64
	budgetBeforeMB, budgetAfterMB float64
}

// ringBlock is the number of records a ring grows by: a function's ring is
// a list of blocks allocated as its decisions arrive, up to the window, so
// growth never copies a record and a never-held function owns no block.
const ringBlock = 8

// planCell is one minute of the plan mirror: the variant the latest
// committed schedule planned for that minute, from which probability, and
// when it was committed.
type planCell struct {
	prob       float64
	minute, at int32
	variant    int8
}

// fnProv is one identity's provenance state. It is keyed by name, not
// slot: when a name deregisters and later re-registers (getting a fresh
// slot), the same entry — and the same decision ring — carries on, so
// /why survives churn.
type fnProv struct {
	name string

	// blocks holds the last window non-resting decisions, record i of the
	// ring at blocks[i/ringBlock][i%ringBlock]; n counts total pushes.
	blocks []*[ringBlock]record
	n      uint64

	// plan mirrors the latest committed schedule entry per absolute minute,
	// planRing-style (index minute % len, stamp checked). Sized lazily from
	// the first schedule sample's plan length.
	plan []planCell

	// The downgrade stashed for the keep-alive sample that follows it in
	// the same minute.
	dgAi, dgPr, dgIp float64
	dgMinute         int32
	dgFrom           int8
	dgSet            bool

	active bool
	family uint16
	slot   int32 // current (or last) slot
	// pend indexes the in-flight minute's decision in Recorder.pending, -1
	// when there is none (or a lifecycle event cancelled it).
	pend int32
}

// pendRec is one in-flight decision: assembled from the barrier-serialized
// sample stream (downgrade → keep-alive), parked until the minute rollup
// supplies the budget columns, then written to its ring — once.
type pendRec struct {
	e   *fnProv
	rec record
}

// RecorderConfig parameterizes a Recorder.
type RecorderConfig struct {
	// Catalog and Assignment describe the initial population (required —
	// variant names and memories come from the catalog).
	Catalog    *models.Catalog
	Assignment models.Assignment
	// Names gives the initial functions their identities, one per
	// Assignment entry (required; use the same list the runtime was built
	// with). Functions registered online are learned from lifecycle
	// samples.
	Names []string
	// Window bounds each function's decision ring (0 selects
	// DefaultWindow).
	Window int
}

// Recorder is the decision provenance recorder: an Observer that sits in
// the telemetry chain and reconstructs, per function per non-resting minute
// (a holder or a release edge — the minutes the sparse KeepAlive contract
// delivers a sample for), the full Algorithm 1/2 picture from the
// barrier-serialized sample stream. A minute costs work proportional to the
// samples it delivered; an idle minute touches no per-function state. Every
// input it consumes is emitted inside the producers' minute write windows,
// so its rings are deterministic — identical across the serial and epoch
// runtimes (the differential harness pins DeepEqual equality).
// Invocation samples are deliberately ignored.
type Recorder struct {
	mu      sync.Mutex
	cat     *models.Catalog
	window  int
	byName  map[string]*fnProv
	bySlot  []*fnProv
	entries []*fnProv // unique entries, registration order
	// pending holds the in-flight minute's decisions in arrival order, reused
	// every minute; lastMinute is the latest minute closed (-1 before any).
	pending    []pendRec
	lastMinute int

	// Algorithm 1 episode state, updated from peak transition samples.
	inPeak   bool
	priorMB  float64
	targetMB float64

	// freedMB accumulates the keep-alive memory the in-flight minute's
	// downgrades released — the before/after budget delta.
	freedMB float64

	// Self-observability minute rings fed by runtime step samples.
	selfMin     [selfCap]int
	selfStepUs  [selfCap]float64
	selfRetries [selfCap]float64
	selfN       int // minutes recorded
	selfLast    int // latest minute recorded
}

// NewRecorder builds a recorder seeded with the initial population.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("provenance: nil catalog")
	}
	if err := cfg.Assignment.Validate(cfg.Catalog, len(cfg.Assignment)); err != nil {
		return nil, err
	}
	if n := len(cfg.Catalog.Families); n > maxFamilies {
		return nil, fmt.Errorf("provenance: catalog has %d families, the decision record indexes at most %d", n, maxFamilies)
	}
	for i := range cfg.Catalog.Families {
		if f := &cfg.Catalog.Families[i]; f.NumVariants() > maxVariants {
			return nil, fmt.Errorf("provenance: family %q has %d variants, the decision record indexes at most %d", f.Name, f.NumVariants(), maxVariants)
		}
	}
	if len(cfg.Names) != len(cfg.Assignment) {
		return nil, fmt.Errorf("provenance: %d names for %d functions", len(cfg.Names), len(cfg.Assignment))
	}
	w := cfg.Window
	if w <= 0 {
		w = DefaultWindow
	}
	r := &Recorder{
		cat:      cfg.Catalog,
		window:   w,
		byName:   make(map[string]*fnProv, len(cfg.Names)),
		bySlot:   make([]*fnProv, len(cfg.Names)),
		entries:  make([]*fnProv, 0, len(cfg.Names)),
		selfLast: -1,

		lastMinute: -1,
	}
	initial := make([]fnProv, len(cfg.Names)) // one allocation; entries never move
	for i, name := range cfg.Names {
		if name == "" {
			return nil, fmt.Errorf("provenance: empty name for function %d", i)
		}
		if _, dup := r.byName[name]; dup {
			return nil, fmt.Errorf("provenance: duplicate name %q", name)
		}
		e := &initial[i]
		*e = fnProv{name: name, slot: int32(i), family: uint16(cfg.Assignment[i]), active: true, pend: -1}
		r.byName[name] = e
		r.bySlot[i] = e
		r.entries = append(r.entries, e)
	}
	return r, nil
}

// entryFor returns the entry currently owning slot fn, nil when the slot
// is unknown or the entry has moved to a newer slot (stale alias after a
// re-registration). Callers hold r.mu.
func (r *Recorder) entryFor(fn int) *fnProv {
	if fn < 0 || fn >= len(r.bySlot) {
		return nil
	}
	e := r.bySlot[fn]
	if e == nil || int(e.slot) != fn {
		return nil
	}
	return e
}

// liveEntry is entryFor restricted to what a barrier-stream sample may
// write to: an active entry, in a minute the record can hold. Callers hold
// r.mu.
func (r *Recorder) liveEntry(fn, minute int) *fnProv {
	if e := r.entryFor(fn); e != nil && e.active && uint(minute) <= math.MaxInt32 {
		return e
	}
	return nil
}

// ObserveInvocation implements telemetry.Observer as a deliberate no-op: a
// decision's provenance is the plan and the keep-alive outcome, which the
// schedule and keep-alive samples carry; what the minute served is the
// arena's and telemetry's to count.
func (r *Recorder) ObserveInvocation(telemetry.InvocationSample) {}

// ObserveSchedule implements telemetry.Observer: the plan mirror records,
// for each minute the schedule covers, which variant the optimizer
// committed from which invocation probability — the unconstrained choice
// /why reports alongside what actually ran.
func (r *Recorder) ObserveSchedule(s telemetry.ScheduleSample) {
	if len(s.Plan) == 0 || len(s.Plan) >= math.MaxInt32-s.Minute {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.liveEntry(s.Function, s.Minute)
	if e == nil {
		return
	}
	if e.plan == nil {
		e.plan = make([]planCell, len(s.Plan)+1)
		for i := range e.plan {
			e.plan[i].minute = -1
		}
	}
	n := len(e.plan)
	nv := r.cat.Families[e.family].NumVariants()
	for i, v := range s.Plan {
		m := s.Minute + 1 + i
		c := &e.plan[m%n]
		if v < noVariant || v >= nv {
			// A variant outside the family: the minute reads as unplanned.
			c.minute = -1
			continue
		}
		*c = planCell{minute: int32(m), at: int32(s.Minute), variant: int8(v)}
		if i < len(s.Probs) {
			c.prob = s.Probs[i]
		}
	}
}

// ObservePeak implements telemetry.Observer: episode transitions set the
// Algorithm 1 context stamped onto every decision inside the episode.
func (r *Recorder) ObservePeak(s telemetry.PeakSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Enter {
		r.inPeak = true
		r.priorMB = s.PriorMB
		r.targetMB = s.TargetMB
	} else {
		r.inPeak = false
		r.priorMB = 0
		r.targetMB = 0
	}
}

// ObserveDowngrade implements telemetry.Observer: the utility breakdown is
// stashed for the keep-alive sample that follows in the same minute, and
// the freed memory feeds the minute's before/after budget delta.
func (r *Recorder) ObserveDowngrade(s telemetry.DowngradeSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.liveEntry(s.Function, s.Minute)
	if e == nil {
		return
	}
	fam := &r.cat.Families[e.family]
	if s.FromVariant < noVariant || s.FromVariant >= fam.NumVariants() {
		return
	}
	e.dgMinute, e.dgFrom, e.dgSet = int32(s.Minute), int8(s.FromVariant), true
	e.dgAi, e.dgPr, e.dgIp = s.Ai, s.Pr, s.Ip
	var freed float64
	if s.FromVariant >= 0 {
		freed = fam.Variants[s.FromVariant].MemoryMB
	}
	if s.ToVariant >= 0 && s.ToVariant < fam.NumVariants() {
		freed -= fam.Variants[s.ToVariant].MemoryMB
	}
	r.freedMB += freed
}

// ObserveKeepAlive implements telemetry.Observer: the decision record is
// assembled — chosen variant from the sample, unconstrained variant and
// probability from the plan mirror (or the downgrade stash), peak context
// from episode state — and parked until the minute rollup closes it. A
// variant index outside the function's family cannot be recorded (or named)
// and drops the sample.
func (r *Recorder) ObserveKeepAlive(s telemetry.KeepAliveSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.liveEntry(s.Function, s.Minute)
	if e == nil || s.Variant < noVariant || s.Variant >= r.cat.Families[e.family].NumVariants() {
		return
	}
	if e.pend < 0 {
		e.pend = int32(len(r.pending))
		r.pending = append(r.pending, pendRec{e: e})
	}
	c := &r.pending[e.pend].rec
	*c = record{
		minute:    int32(s.Minute),
		slot:      e.slot,
		plannedAt: -1,
		famFlags:  e.family,
		chosen:    int8(s.Variant),
		planned:   noVariant,
		memMB:     s.MemMB,
	}
	if n := len(e.plan); n > 0 {
		if p := &e.plan[s.Minute%n]; p.minute == c.minute {
			c.prob, c.plannedAt, c.planned = p.prob, p.at, p.variant
		}
	}
	if e.dgSet && e.dgMinute == c.minute {
		c.famFlags |= recDowngraded
		c.planned = e.dgFrom
		c.ai, c.pr, c.ip = e.dgAi, e.dgPr, e.dgIp
	} else if c.planned == noVariant {
		// No plan covered this minute (minute 0, or a baseline policy
		// without schedules): unconstrained and chosen coincide.
		c.planned = c.chosen
	}
	e.dgSet = false
	if r.inPeak {
		c.famFlags |= recPeak
		c.priorMB, c.targetMB = r.priorMB, r.targetMB
	}
}

// ObserveMinute implements telemetry.Observer: the rollup closes the
// minute — every parked decision gets the cluster-wide budget columns and
// is written into its function's ring. Only the pending list is walked; a
// decision a lifecycle event cancelled in between is skipped.
func (r *Recorder) ObserveMinute(s telemetry.MinuteSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	before := s.KeepAliveMB + r.freedMB
	for i := range r.pending {
		p := &r.pending[i]
		e := p.e
		if e.pend != int32(i) {
			continue
		}
		e.pend = -1
		if int(p.rec.minute) != s.Minute {
			continue
		}
		p.rec.budgetBeforeMB = before
		p.rec.budgetAfterMB = s.KeepAliveMB
		at := int(e.n % uint64(r.window))
		if at/ringBlock == len(e.blocks) {
			e.blocks = append(e.blocks, new([ringBlock]record))
		}
		e.blocks[at/ringBlock][at%ringBlock] = p.rec
		e.n++
	}
	r.pending = r.pending[:0]
	r.freedMB = 0
	if s.Minute > r.lastMinute {
		r.lastMinute = s.Minute
	}
}

// ObserveRegister implements telemetry.LifecycleObserver: a brand-new name
// gets a fresh entry; a returning name reclaims its old entry (and its
// decision ring) at the new slot — the identity keying that makes /why
// survive churn.
func (r *Recorder) ObserveRegister(s telemetry.RegisterSample) {
	if uint(s.Function) > math.MaxInt32 || uint(s.Family) >= uint(len(r.cat.Families)) {
		return // a slot or family the record cannot index: nothing to explain it by
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.bySlot) <= s.Function {
		r.bySlot = append(r.bySlot, nil)
	}
	e := r.byName[s.Name]
	if e == nil {
		e = &fnProv{name: s.Name}
		r.byName[s.Name] = e
		r.entries = append(r.entries, e)
	}
	e.slot = int32(s.Function)
	e.family = uint16(s.Family)
	e.active = true
	e.pend = -1
	e.dgSet = false
	// The plan mirror belongs to the previous incarnation's schedule
	// stream; drop it so stale plans cannot explain new decisions.
	e.plan = nil
	r.bySlot[s.Function] = e
}

// ObserveDeregister implements telemetry.LifecycleObserver: the entry is
// deactivated (its ring is retained for /why) and later samples against
// the retired slot are ignored.
func (r *Recorder) ObserveDeregister(s telemetry.DeregisterSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entryFor(s.Function)
	if e == nil {
		return
	}
	e.active = false
	e.pend = -1
	e.dgSet = false
}

// ObserveStep implements telemetry.SelfObserver: runtime minute-barrier
// samples feed the step-latency and seqlock-retry self series. Values are
// wall-clock and mode-dependent, so they live outside the decision rings
// the differential harness compares.
func (r *Recorder) ObserveStep(s telemetry.StepSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := s.Minute % selfCap
	if idx < 0 {
		idx += selfCap
	}
	r.selfMin[idx] = s.Minute
	r.selfStepUs[idx] = s.Seconds * 1e6
	r.selfRetries[idx] = float64(s.SeqlockRetries)
	if r.selfN < selfCap {
		r.selfN++
	}
	if s.Minute > r.selfLast {
		r.selfLast = s.Minute
	}
}

// ObserveScan implements telemetry.SelfObserver (scan histograms are the
// metric registry's concern; the recorder keeps nothing).
func (r *Recorder) ObserveScan(telemetry.ScanSample) {}

// ObserveFlush implements telemetry.SelfObserver.
func (r *Recorder) ObserveFlush(telemetry.FlushSample) {}

// SelfSeries returns the last window minutes of a self metric
// (MetricStepLatencyUs or MetricSeqlockRetries), oldest first. Unknown
// metrics return ok=false.
func (r *Recorder) SelfSeries(metric string, window int) (pts []Point, ok bool) {
	switch metric {
	case MetricStepLatencyUs, MetricSeqlockRetries:
	default:
		return nil, false
	}
	if window <= 0 || window > selfCap {
		window = selfCap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.selfLast < 0 {
		return []Point{}, true
	}
	first := r.selfLast - window + 1
	if first < 0 {
		first = 0
	}
	pts = make([]Point, 0, r.selfLast-first+1)
	for m := first; m <= r.selfLast; m++ {
		idx := m % selfCap
		if r.selfMin[idx] != m {
			continue
		}
		v := r.selfStepUs[idx]
		if metric == MetricSeqlockRetries {
			v = r.selfRetries[idx]
		}
		pts = append(pts, Point{Minute: m, Value: v})
	}
	return pts, true
}

// decision materializes a ring record: names from the catalog family the
// indices were recorded under, Uv from its three terms.
func (r *Recorder) decision(c *record) Decision {
	fam := &r.cat.Families[c.famFlags&(maxFamilies-1)]
	d := Decision{
		Minute:         int(c.minute),
		Slot:           int(c.slot),
		Chosen:         int(c.chosen),
		MemMB:          c.memMB,
		Planned:        int(c.planned),
		Prob:           c.prob,
		PlannedAt:      int(c.plannedAt),
		Downgraded:     c.famFlags&recDowngraded != 0,
		Ai:             c.ai,
		Pr:             c.pr,
		Ip:             c.ip,
		Uv:             c.ai + c.pr + c.ip,
		Peak:           c.famFlags&recPeak != 0,
		PriorMB:        c.priorMB,
		TargetMB:       c.targetMB,
		BudgetBeforeMB: c.budgetBeforeMB,
		BudgetAfterMB:  c.budgetAfterMB,
	}
	if c.chosen >= 0 {
		d.ChosenName = fam.Variants[c.chosen].Name
	}
	if c.planned >= 0 {
		d.PlannedName = fam.Variants[c.planned].Name
	}
	return d
}

// lastDecisions returns up to n of e's most recent decisions (n <= 0: the
// whole ring), oldest first. Callers hold r.mu.
func (r *Recorder) lastDecisions(e *fnProv, n int) []Decision {
	have := min(e.n, uint64(r.window))
	if n > 0 && uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Decision, 0, have)
	for i := e.n - have; i < e.n; i++ {
		at := int(i % uint64(r.window))
		out = append(out, r.decision(&e.blocks[at/ringBlock][at%ringBlock]))
	}
	return out
}

// Explain returns the last n decisions for a function name (n <= 0 returns
// the whole ring). Deregistered functions remain explainable.
func (r *Recorder) Explain(name string, n int) (Explanation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.explainLocked(name, n)
}

func (r *Recorder) explainLocked(name string, n int) (Explanation, error) {
	e := r.byName[name]
	if e == nil {
		return Explanation{}, fmt.Errorf("provenance: unknown function %q", name)
	}
	return Explanation{
		Function:  e.name,
		Slot:      int(e.slot),
		Family:    r.cat.Families[e.family].Name,
		Active:    e.active,
		Window:    r.window,
		Decisions: r.lastDecisions(e, n),
	}, nil
}

// ExplainMinute returns a function's decision for one specific minute. A
// closed minute with no recorded decision that falls after the oldest one
// still in the ring (or anywhere, while the ring has never wrapped) is
// answered as resting cold with no plan — absence is the sparse contract's
// encoding of exactly that. A minute older than a wrapped ring's reach, or
// one the recorder has not closed yet, is an error.
func (r *Recorder) ExplainMinute(name string, minute int) (Explanation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ex, err := r.explainLocked(name, 0)
	if err != nil {
		return Explanation{}, err
	}
	for _, d := range ex.Decisions {
		if d.Minute == minute {
			ex.Decisions = []Decision{d}
			return ex, nil
		}
	}
	closed := minute >= 0 && minute <= r.lastMinute
	wrapped := len(ex.Decisions) == r.window
	if closed && (!wrapped || minute > ex.Decisions[0].Minute) {
		ex.Decisions = []Decision{{Minute: minute, Slot: ex.Slot, Resting: true, Chosen: noVariant, Planned: noVariant, PlannedAt: -1}}
		return ex, nil
	}
	return Explanation{}, fmt.Errorf("provenance: no recorded decision for %q at minute %d (ring keeps the last %d non-resting decisions)", name, minute, r.window)
}

// Rings returns a deep copy of every function's decision ring, oldest
// first, keyed by name — the snapshot the differential harness DeepEquals
// across runtime modes.
func (r *Recorder) Rings() map[string][]Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]Decision, len(r.entries))
	for _, e := range r.entries {
		out[e.name] = r.lastDecisions(e, 0)
	}
	return out
}

var (
	_ telemetry.Observer          = (*Recorder)(nil)
	_ telemetry.LifecycleObserver = (*Recorder)(nil)
	_ telemetry.SelfObserver      = (*Recorder)(nil)
)
