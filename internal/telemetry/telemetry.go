package telemetry

import (
	"io"
	"math"
	"sync"
)

// Config parameterizes a Telemetry instance.
type Config struct {
	// EventCapacity bounds the decision-log ring (0 selects
	// DefaultEventCapacity).
	EventCapacity int
	// EventSink, when non-nil, receives every decision event as one JSON
	// line (an audit trail that outlives the ring).
	EventSink io.Writer
}

// Telemetry is the full observability pipeline: an Observer that feeds a
// metric registry (per-function, per-variant series plus a service-time
// histogram, kept in slot-indexed columns) and the structured decision log.
// One instance is shared by the controller, the runtime, and the HTTP API.
type Telemetry struct {
	reg *Registry
	log *EventLog

	// mu guards every series: a sample writes under it, and a render
	// copies one chunk (or one unlabeled series) at a time.
	mu        sync.Mutex
	chunks    []*chunk               // the slot table (slots.go), by slot / chunkSlots
	spill     map[int32][]variantCol // a slot's invoked variants past inlineVariants
	keptSpill map[int32][]uint32     // a slot's held variants past inlineVariants
	names     []string               // interned variant names by id; 0 names none
	nameID    map[string]uint32      // names' inverse
	scan      []durHist              // by shard+1; a shard's series exists once observed

	stepDur, flushDur             durHist
	peaks, registers, deregisters uint64
	peakActive                    float64
}

// New builds a Telemetry instance with its default metric families.
func New(cfg Config) (*Telemetry, error) {
	log, err := NewEventLog(cfg.EventCapacity, cfg.EventSink)
	if err != nil {
		return nil, err
	}
	t := &Telemetry{
		reg:       NewRegistry(),
		log:       log,
		spill:     make(map[int32][]variantCol),
		keptSpill: make(map[int32][]uint32),
		names:     []string{""},
		nameID:    make(map[string]uint32),
	}
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return read()
		}
	}
	for _, f := range []*family{
		{name: "pulse_function_invocations_total", typ: "counter", write: t.writeInvocations,
			help: "Invocations served, by function, model variant, and start kind."},
		{name: "pulse_function_service_seconds", typ: "histogram", write: t.writeService,
			help: "Per-invocation service time (cold start included on cold starts)."},
		{name: "pulse_function_keepalive_mb", typ: "gauge", write: t.writeKeepAlive,
			help: "Memory kept alive this minute, by function and variant (0 when not kept)."},
		{name: "pulse_downgrades_total", typ: "counter", write: t.writeCounts(downgradesCol),
			help: "Algorithm 2 downgrades applied during peaks, by function."},
		{name: "pulse_schedules_total", typ: "counter", write: t.writeCounts(schedulesCol),
			help: "Function-centric keep-alive plans committed, by function."},
		{name: "pulse_peaks_total", typ: "counter", fn: locked(func() float64 { return float64(t.peaks) }),
			help: "Algorithm 1 peak episodes entered."},
		{name: "pulse_peak_active", typ: "gauge", fn: locked(func() float64 { return t.peakActive }),
			help: "1 while a keep-alive memory peak episode is being flattened."},
		{name: "pulse_function_registrations_total", typ: "counter", fn: locked(func() float64 { return float64(t.registers) }),
			help: "Functions registered online since start."},
		{name: "pulse_function_deregistrations_total", typ: "counter", fn: locked(func() float64 { return float64(t.deregisters) }),
			help: "Functions deregistered online since start."},
		{name: "pulse_step_duration_seconds", typ: "histogram", write: t.writeDuration(&t.stepDur),
			help: "Wall time the runtime minute barrier is held per Step."},
		{name: "pulse_shard_scan_duration_seconds", typ: "histogram", write: t.writeScan,
			help: "Per-minute scan duration, by controller record shard (-1 = the coordinator's own scan)."},
		{name: "pulse_observer_flush_duration_seconds", typ: "histogram", write: t.writeDuration(&t.flushDur),
			help: "Duration of the post-scan observer flush replaying sharded samples in serial order."},
	} {
		if err := t.reg.register(f); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Registry exposes the metric registry (for the HTTP /metrics endpoint and
// for callers registering additional series).
func (t *Telemetry) Registry() *Registry { return t.reg }

// Events exposes the decision log (for the HTTP /events endpoint).
func (t *Telemetry) Events() *EventLog { return t.log }

// ObserveInvocation implements Observer: it bumps the function's invocation
// count for (variant, start kind) and feeds its service-time histogram.
func (t *Telemetry) ObserveInvocation(s InvocationSample) {
	n := s.Count
	if n <= 0 {
		n = 1
	}
	cold := 0
	if s.Cold {
		cold = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, i := t.at(s.Function, true)
	if c == nil {
		return
	}
	row := &c.inv[i]
	t.variant(row, s.Function, s.Variant).inv[cold] += uint64(n)
	row.svc.observe(s.ServiceSec, uint64(n))
}

// ObserveKeepAlive implements Observer: it maintains the per-function,
// per-variant keep-alive gauge. A function's gauges read the held variant's
// MemMB for that variant and 0 for every other it held, so the exposition
// never shows stale memory. The sparse contract delivers exactly the samples
// this needs — a holder's every minute (the gauge follows variant changes)
// and the release edge (the gauge reads 0 again); a resting function's
// silence costs nothing.
func (t *Telemetry) ObserveKeepAlive(s KeepAliveSample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, i := t.at(s.Function, s.Variant >= 0)
	if c == nil {
		return
	}
	h := &c.held[i]
	if s.Variant < 0 { // release edge
		h.name = 0
		return
	}
	if h.name == 0 || t.names[h.name] != s.VariantName {
		h.name = t.keep(h, s.Function, s.VariantName)
	}
	h.bits = math.Float64bits(s.MemMB)
}

// count bumps the per-function counter col picks for slot fn.
func (t *Telemetry) count(fn int, col func(*chunk) *[chunkSlots]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, i := t.at(fn, true); c != nil {
		col(c)[i]++
	}
}

// ObserveMinute implements Observer: the rollup goes to the decision log.
func (t *Telemetry) ObserveMinute(s MinuteSample) {
	t.log.Append(Event{
		Minute:   s.Minute,
		Kind:     KindMinute,
		Function: -1,
		KaMMB:    s.KeepAliveMB,
		CostUSD:  s.CostUSD,
	})
}

// ObserveSchedule implements Observer: it counts the plan and logs it with
// the probabilities that chose each variant.
func (t *Telemetry) ObserveSchedule(s ScheduleSample) {
	t.count(s.Function, schedulesCol)
	// The log copies Plan and Probs into its ring slot's own storage.
	t.log.Append(Event{
		Minute:   s.Minute,
		Kind:     KindSchedule,
		Function: s.Function,
		Plan:     s.Plan,
		Probs:    s.Probs,
	})
}

// ObservePeak implements Observer: episode transitions toggle the active
// gauge, count episodes, and enter the decision log.
func (t *Telemetry) ObservePeak(s PeakSample) {
	kind := KindPeakExit
	t.mu.Lock()
	t.peakActive = 0
	if s.Enter {
		kind = KindPeakEnter
		t.peaks++
		t.peakActive = 1
	}
	t.mu.Unlock()
	t.log.Append(Event{
		Minute:      s.Minute,
		Kind:        kind,
		Function:    -1,
		KaMMB:       s.KeepAliveMB,
		PriorKaMMB:  s.PriorMB,
		TargetKaMMB: s.TargetMB,
		Downgrades:  s.Downgrades,
	})
}

// ObserveDowngrade implements Observer: every Algorithm 2 downgrade is
// counted per function and logged with its full utility breakdown.
func (t *Telemetry) ObserveDowngrade(s DowngradeSample) {
	t.count(s.Function, downgradesCol)
	t.log.Append(Event{
		Minute:      s.Minute,
		Kind:        KindDowngrade,
		Function:    s.Function,
		FromVariant: s.FromVariant,
		ToVariant:   s.ToVariant,
		Ai:          s.Ai,
		Pr:          s.Pr,
		Ip:          s.Ip,
		Uv:          s.Uv(),
	})
}

var _ Observer = (*Telemetry)(nil)
