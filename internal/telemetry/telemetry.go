package telemetry

import (
	"io"
	"math"
	"sync"
	"sync/atomic"
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
// labeled metric registry (per-function, per-variant series plus a
// service-time histogram) and the structured decision log. One instance is
// shared by the controller, the runtime, and the HTTP API.
type Telemetry struct {
	reg *Registry
	log *EventLog

	invocations *CounterVec   // {function,variant,start}
	service     *HistogramVec // {function}
	keepalive   *GaugeVec     // {function,variant}
	downgrades  *CounterVec   // {function}
	schedules   *CounterVec   // {function}
	peaks       *Counter
	peakActive  *Gauge
	registers   *Counter
	deregisters *Counter
	stepDur     *Histogram
	scanDur     *HistogramVec // {shard}
	flushDur    *Histogram

	// mu guards slot-table growth, the publication of invocation handle
	// sets, keep-alive gauge state and scanCache. The ObserveInvocation hit
	// path never takes it; no registry series is ever created under it.
	mu        sync.Mutex
	dir       atomic.Pointer[[]*slotChunk] // the slot table (slots.go)
	scanCache map[int]*Histogram           // by shard
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
		scanCache: make(map[int]*Histogram),
	}
	t.dir.Store(new([]*slotChunk))
	if t.invocations, err = t.reg.NewCounterVec("pulse_function_invocations_total",
		"Invocations served, by function, model variant, and start kind.",
		"function", "variant", "start"); err != nil {
		return nil, err
	}
	if t.service, err = t.reg.NewHistogramVec("pulse_function_service_seconds",
		"Per-invocation service time (cold start included on cold starts).",
		DefServiceTimeBuckets(), "function"); err != nil {
		return nil, err
	}
	if t.keepalive, err = t.reg.NewGaugeVec("pulse_function_keepalive_mb",
		"Memory kept alive this minute, by function and variant (0 when not kept).",
		"function", "variant"); err != nil {
		return nil, err
	}
	if t.downgrades, err = t.reg.NewCounterVec("pulse_downgrades_total",
		"Algorithm 2 downgrades applied during peaks, by function.",
		"function"); err != nil {
		return nil, err
	}
	if t.schedules, err = t.reg.NewCounterVec("pulse_schedules_total",
		"Function-centric keep-alive plans committed, by function.",
		"function"); err != nil {
		return nil, err
	}
	peaksVec, err := t.reg.NewCounterVec("pulse_peaks_total",
		"Algorithm 1 peak episodes entered.")
	if err != nil {
		return nil, err
	}
	t.peaks = peaksVec.With()
	activeVec, err := t.reg.NewGaugeVec("pulse_peak_active",
		"1 while a keep-alive memory peak episode is being flattened.")
	if err != nil {
		return nil, err
	}
	t.peakActive = activeVec.With()
	regVec, err := t.reg.NewCounterVec("pulse_function_registrations_total",
		"Functions registered online since start.")
	if err != nil {
		return nil, err
	}
	t.registers = regVec.With()
	deregVec, err := t.reg.NewCounterVec("pulse_function_deregistrations_total",
		"Functions deregistered online since start.")
	if err != nil {
		return nil, err
	}
	t.deregisters = deregVec.With()
	stepVec, err := t.reg.NewHistogramVec("pulse_step_duration_seconds",
		"Wall time the runtime minute barrier is held per Step.",
		DefEngineDurationBuckets())
	if err != nil {
		return nil, err
	}
	t.stepDur = stepVec.With()
	if t.scanDur, err = t.reg.NewHistogramVec("pulse_shard_scan_duration_seconds",
		"Per-minute scan duration, by controller record shard (-1 = the coordinator's own scan).",
		DefEngineDurationBuckets(), "shard"); err != nil {
		return nil, err
	}
	flushVec, err := t.reg.NewHistogramVec("pulse_observer_flush_duration_seconds",
		"Duration of the post-scan observer flush replaying sharded samples in serial order.",
		DefEngineDurationBuckets())
	if err != nil {
		return nil, err
	}
	t.flushDur = flushVec.With()
	return t, nil
}

// Registry exposes the metric registry (for the HTTP /metrics endpoint and
// for callers registering additional series).
func (t *Telemetry) Registry() *Registry { return t.reg }

// Events exposes the decision log (for the HTTP /events endpoint).
func (t *Telemetry) Events() *EventLog { return t.log }

// ObserveInvocation implements Observer: it bumps the labeled invocation
// counter and feeds the function's service-time histogram. Once a (function,
// variant, start kind) has been seen the path takes no lock: atomic loads, a
// scan of the function's few variants, the lock-free series updates.
func (t *Telemetry) ObserveInvocation(s InvocationSample) {
	n := s.Count
	if n <= 0 {
		n = 1
	}
	fs := t.slot(s.Function)
	if fs == nil {
		return
	}
	cold := 0
	if s.Cold {
		cold = 1
	}
	var c, h *series
	if set := fs.inv.Load(); set != nil {
		h = set.svc
		for i := range set.variants {
			if set.variants[i].name == s.Variant {
				c = set.variants[i].start[cold]
				break
			}
		}
	}
	if c == nil {
		c, h = t.invocationSeries(fs, s.Variant, cold)
	}
	c.add(float64(n))
	h.observe(t.service.f.buckets, s.ServiceSec, uint64(n))
}

// ObserveKeepAlive implements Observer: it maintains the per-function,
// per-variant keep-alive gauge, zeroing the series of a variant the
// function no longer keeps so the exposition never shows stale memory. The
// sparse contract delivers exactly the samples this needs — a holder's
// every minute (the gauge follows variant changes) and the release edge (the
// gauge is zeroed and forgotten); a resting function's silence costs nothing.
// A holder whose variant and memory did not change since its last sample
// returns without touching a series: the gauge already holds the value.
func (t *Telemetry) ObserveKeepAlive(s KeepAliveSample) {
	fs := t.slot(s.Function)
	if fs == nil {
		return
	}
	bits := math.Float64bits(s.MemMB)
	t.mu.Lock()
	defer t.mu.Unlock()
	held := &fs.held
	if s.Variant < 0 { // release edge
		if held.gauge != nil {
			held.gauge.set(0)
			*held = kaSeries{}
		}
		return
	}
	if held.gauge == nil || held.variant != s.VariantName {
		next := fs.kaSeries(s.VariantName)
		if next.gauge == nil {
			// First hold of this variant: resolve the gauge outside the lock
			// (creation may wait behind a scrape), then look again.
			t.mu.Unlock()
			g := t.keepalive.f.fresh([]string{fs.label, s.VariantName})
			t.mu.Lock()
			if next = fs.kaSeries(s.VariantName); next.gauge == nil {
				next = kaSeries{variant: s.VariantName, gauge: g}
				fs.ka = append(fs.ka, next)
			}
		}
		if held.gauge != nil {
			held.gauge.set(0)
		}
		*held = next
	} else if fs.heldBits == bits {
		return
	}
	held.gauge.set(s.MemMB)
	fs.heldBits = bits
}

// kaSeries returns the function's gauge for variant, zero when it never held
// it. Callers hold Telemetry.mu.
func (fs *fnSeries) kaSeries(variant string) kaSeries {
	for _, k := range fs.ka {
		if k.variant == variant {
			return k
		}
	}
	return kaSeries{}
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
	if fs := t.slot(s.Function); fs != nil {
		fs.counter(&fs.sch, t.schedules).add(1)
	}
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
	if s.Enter {
		kind = KindPeakEnter
		t.peaks.Inc()
		t.peakActive.Set(1)
	} else {
		t.peakActive.Set(0)
	}
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
	if fs := t.slot(s.Function); fs != nil {
		fs.counter(&fs.dg, t.downgrades).add(1)
	}
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
