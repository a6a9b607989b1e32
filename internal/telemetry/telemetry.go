package telemetry

import (
	"io"
	"strconv"
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
	// ServiceTimeBuckets overrides the service-time histogram buckets
	// (nil selects DefServiceTimeBuckets).
	ServiceTimeBuckets []float64
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

	mu        sync.Mutex
	invCache  map[invKey]*Counter
	svcCache  map[int]*Histogram
	kaCache   map[kaKey]*Gauge
	kaLast    map[int]kaKey // variant each function last kept alive
	dgCache   map[int]*Counter
	schCache  map[int]*Counter
	scanCache map[int]*Histogram
	fnLabel   map[int]string // strconv.Itoa cache
}

type invKey struct {
	fn      int
	variant string
	cold    bool
}

type kaKey struct {
	fn      int
	variant string
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
		invCache:  make(map[invKey]*Counter),
		svcCache:  make(map[int]*Histogram),
		kaCache:   make(map[kaKey]*Gauge),
		kaLast:    make(map[int]kaKey),
		dgCache:   make(map[int]*Counter),
		schCache:  make(map[int]*Counter),
		scanCache: make(map[int]*Histogram),
		fnLabel:   make(map[int]string),
	}
	if t.invocations, err = t.reg.NewCounterVec("pulse_function_invocations_total",
		"Invocations served, by function, model variant, and start kind.",
		"function", "variant", "start"); err != nil {
		return nil, err
	}
	if t.service, err = t.reg.NewHistogramVec("pulse_function_service_seconds",
		"Per-invocation service time (cold start included on cold starts).",
		cfg.ServiceTimeBuckets, "function"); err != nil {
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
		"Per-minute controller scan duration, by shard (-1 = serial scan).",
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

func (t *Telemetry) fn(n int) string {
	if s, ok := t.fnLabel[n]; ok {
		return s
	}
	s := strconv.Itoa(n)
	t.fnLabel[n] = s
	return s
}

// ObserveInvocation implements Observer: it bumps the labeled invocation
// counter and feeds the function's service-time histogram.
func (t *Telemetry) ObserveInvocation(s InvocationSample) {
	n := s.Count
	if n <= 0 {
		n = 1
	}
	k := invKey{fn: s.Function, variant: s.Variant, cold: s.Cold}
	t.mu.Lock()
	c := t.invCache[k]
	if c == nil {
		start := "warm"
		if s.Cold {
			start = "cold"
		}
		c = t.invocations.With(t.fn(s.Function), s.Variant, start)
		t.invCache[k] = c
	}
	h := t.svcCache[s.Function]
	if h == nil {
		h = t.service.With(t.fn(s.Function))
		t.svcCache[s.Function] = h
	}
	t.mu.Unlock()
	c.Add(float64(n))
	h.ObserveN(s.ServiceSec, uint64(n))
}

// ObserveKeepAlive implements Observer: it maintains the per-function,
// per-variant keep-alive gauge, zeroing the series of a variant the
// function no longer keeps so the exposition never shows stale memory. The
// sparse contract delivers exactly the samples this needs — a holder's
// every minute (the gauge and kaLast follow variant changes) and the
// release edge (the gauge is zeroed, kaLast forgotten); a resting function
// has no gauge to maintain, so its silence costs nothing.
func (t *Telemetry) ObserveKeepAlive(s KeepAliveSample) {
	t.mu.Lock()
	prev, had := t.kaLast[s.Function]
	cur := kaKey{fn: s.Function, variant: s.VariantName}
	var prevGauge, curGauge *Gauge
	if had && prev != cur {
		prevGauge = t.kaCache[prev]
	}
	if s.Variant >= 0 {
		curGauge = t.kaCache[cur]
		if curGauge == nil {
			curGauge = t.keepalive.With(t.fn(s.Function), s.VariantName)
			t.kaCache[cur] = curGauge
		}
		t.kaLast[s.Function] = cur
	} else {
		delete(t.kaLast, s.Function)
	}
	t.mu.Unlock()
	if prevGauge != nil {
		prevGauge.Set(0)
	}
	if curGauge != nil {
		curGauge.Set(s.MemMB)
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
	t.mu.Lock()
	c := t.schCache[s.Function]
	if c == nil {
		c = t.schedules.With(t.fn(s.Function))
		t.schCache[s.Function] = c
	}
	t.mu.Unlock()
	c.Inc()
	t.log.Append(Event{
		Minute:   s.Minute,
		Kind:     KindSchedule,
		Function: s.Function,
		Plan:     append([]int(nil), s.Plan...),
		Probs:    append([]float64(nil), s.Probs...),
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
	t.mu.Lock()
	c := t.dgCache[s.Function]
	if c == nil {
		c = t.downgrades.With(t.fn(s.Function))
		t.dgCache[s.Function] = c
	}
	t.mu.Unlock()
	c.Inc()
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
