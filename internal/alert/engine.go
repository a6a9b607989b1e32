package alert

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// DefaultQueueSize bounds the notification delivery queue when Config
// leaves it zero.
const DefaultQueueSize = 64

// Config assembles an Engine.
type Config struct {
	// Rules are the threshold conditions to evaluate each minute. Names
	// must be unique; rules over savings_vs_fixed_usd require Attribution.
	Rules []Rule
	// Sinks receive every notification, in order, from the engine's
	// delivery goroutine — a slow sink delays later notifications but
	// never the producer's minute barrier.
	Sinks []Sink
	// Attribution, when non-nil, supplies the savings_vs_fixed_usd rule
	// input from its per-minute ring. The accountant must observe the
	// same sample stream and precede the engine in the observer chain
	// (telemetry.Multi(tel, acct, engine)), so each minute is priced
	// before the engine evaluates it.
	Attribution *attribution.Accountant
	// Stream, when non-nil, receives a "minute" event per closed minute
	// and an "alert" event per transition.
	Stream *Broadcaster
	// QueueSize bounds the delivery queue (0 selects DefaultQueueSize).
	// When full, notifications are dropped and counted, never blocked on.
	QueueSize int
}

// ruleState is one rule's evaluation state.
type ruleState struct {
	rule      Rule
	run       int // consecutive breached minutes while not firing
	firing    bool
	since     int // first breached minute of the current episode
	canFireAt int // cooldown gate: first minute allowed to fire (again)
}

// MinutePoint is the engine's per-minute rollup, published on the stream
// as a "minute" event — the dashboard's live series feed.
type MinutePoint struct {
	Minute       int     `json:"minute"`
	KeepAliveMB  float64 `json:"keepAliveMB"`
	CostUSD      float64 `json:"costUSD"`
	Invocations  int     `json:"invocations"`
	ColdStarts   int     `json:"coldStarts"`
	ColdRatePct  float64 `json:"coldRatePct"`
	DeregInvokes int     `json:"deregInvokes"`
	// SavingsVsFixedUSD is present only with an attribution accountant.
	SavingsVsFixedUSD *float64 `json:"savingsVsFixedUSD,omitempty"`
}

// Engine evaluates threshold rules at the minute barrier. It implements
// telemetry.Observer: attach it after the metrics pipeline and the
// attribution accountant in the observer chain. A minute is evaluated
// when the next minute's rollup sample opens — the same close discipline
// the accountant uses — so firings are a pure function of the sample
// stream and replay deterministically at any shard count or locking mode.
//
// All methods are safe on a nil *Engine (no-ops / zero values), so callers
// can wire an optional engine without guarding every call site.
type Engine struct {
	acct   *attribution.Accountant
	stream *Broadcaster
	sinks  []Sink

	mu     sync.Mutex
	rules  []ruleState
	closed bool
	cur    int     // open minute, -1 before the first sample
	dirty  bool    // open minute has received samples (Flush closes only then)
	kamMB  float64 // open minute's keep-alive memory (from the rollup)
	cost   float64 // open minute's keep-alive cost
	inv    int     // open minute's invocations
	cold   int     // open minute's cold starts

	// dereg counts invocations of deregistered functions; bumped by HTTP
	// handlers concurrent with everything, swapped out at minute close.
	dereg atomic.Int64

	queue     chan Notification
	wg        sync.WaitGroup
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// NewEngine validates the rules and starts the delivery goroutine. Close
// the engine to flush and stop it.
func NewEngine(cfg Config) (*Engine, error) {
	seen := map[string]bool{}
	for _, r := range cfg.Rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("alert: duplicate rule %q", r.Name)
		}
		seen[r.Name] = true
		if r.Metric == MetricSavingsVsFixedUSD && cfg.Attribution == nil {
			return nil, fmt.Errorf("alert: rule %q needs the attribution accountant (metric %s)", r.Name, r.Metric)
		}
	}
	qs := cfg.QueueSize
	if qs <= 0 {
		qs = DefaultQueueSize
	}
	e := &Engine{
		acct:   cfg.Attribution,
		stream: cfg.Stream,
		sinks:  cfg.Sinks,
		rules:  make([]ruleState, len(cfg.Rules)),
		cur:    -1,
		queue:  make(chan Notification, qs),
	}
	for i, r := range cfg.Rules {
		e.rules[i] = ruleState{rule: r}
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for n := range e.queue {
			for _, s := range e.sinks {
				s.Deliver(n)
			}
			e.delivered.Add(1)
		}
	}()
	return e, nil
}

// Close stops the delivery goroutine after draining queued notifications.
// Idempotent; nil-safe. Producers must stop observing first.
func (e *Engine) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.queue)
	e.wg.Wait()
	return nil
}

// RecordDeregisteredInvoke counts one invocation attempt against a
// deregistered function into the open minute's dereg_invokes metric.
// Safe from any goroutine; nil-safe.
func (e *Engine) RecordDeregisteredInvoke() {
	if e == nil {
		return
	}
	e.dereg.Add(1)
}

// Status reports the engine's health for /healthz. nil-safe: a nil engine
// reports Enabled false.
func (e *Engine) Status() Status {
	if e == nil {
		return Status{Firing: []string{}}
	}
	e.mu.Lock()
	st := Status{
		Enabled:   true,
		Rules:     len(e.rules),
		Firing:    []string{},
		Minute:    e.cur,
		Delivered: e.delivered.Load(),
		Dropped:   e.dropped.Load(),
	}
	for i := range e.rules {
		if e.rules[i].firing {
			st.Firing = append(st.Firing, e.rules[i].rule.Name)
		}
	}
	e.mu.Unlock()
	return st
}

// Flush closes the still-open minute and evaluates its rules. The cluster
// engine's feed ends with the final minute open (its rollup opens the
// minute and nothing ever closes it); replay harnesses call Flush after
// the run so the final minute is evaluated exactly once, matching a live
// runtime that stepped past it. A minute that has received no samples is
// left alone, so flushing twice — or flushing an idle engine — evaluates
// nothing and cannot spuriously resolve a firing rule with an empty
// minute. nil-safe.
func (e *Engine) Flush() {
	if e == nil {
		return
	}
	e.mu.Lock()
	if !e.closed && e.cur >= 0 && e.dirty {
		e.closeMinuteLocked()
		e.cur++
	}
	e.mu.Unlock()
}

// ObserveMinute implements telemetry.Observer: the rollup opening minute m
// closes (and evaluates) every minute before it.
func (e *Engine) ObserveMinute(s telemetry.MinuteSample) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if !e.closed {
		e.rollLocked(s.Minute)
		e.kamMB, e.cost = s.KeepAliveMB, s.CostUSD
		e.dirty = true
	}
	e.mu.Unlock()
}

// ObserveInvocation implements telemetry.Observer. Samples carrying an
// older minute (only a malformed feed sends one) fold into the open minute,
// mirroring the accountant.
func (e *Engine) ObserveInvocation(s telemetry.InvocationSample) {
	if e == nil {
		return
	}
	n := s.Count
	if n <= 0 {
		n = 1
	}
	e.mu.Lock()
	if !e.closed {
		e.rollLocked(s.Minute)
		e.inv += n
		if s.Cold {
			e.cold += n
		}
		e.dirty = true
	}
	e.mu.Unlock()
}

// ObserveKeepAlive implements telemetry.Observer (ignored: the minute
// rollup already carries the total keep-alive memory).
func (e *Engine) ObserveKeepAlive(telemetry.KeepAliveSample) {}

// ObserveSchedule implements telemetry.Observer (ignored).
func (e *Engine) ObserveSchedule(telemetry.ScheduleSample) {}

// ObservePeak implements telemetry.Observer (ignored: peaks reach the
// stream through the decision-log tap).
func (e *Engine) ObservePeak(telemetry.PeakSample) {}

// ObserveDowngrade implements telemetry.Observer (ignored).
func (e *Engine) ObserveDowngrade(telemetry.DowngradeSample) {}

// rollLocked advances the open minute to m, closing (and evaluating)
// every minute in between. Minutes only move forward.
func (e *Engine) rollLocked(m int) {
	if e.cur < 0 {
		if m < 0 {
			m = 0
		}
		e.cur = m
		return
	}
	for e.cur < m {
		e.closeMinuteLocked()
		e.cur++
	}
}

// closeMinuteLocked finalizes the open minute: computes the rule inputs,
// evaluates every rule, publishes the minute rollup to the stream, and
// resets the per-minute accumulators.
func (e *Engine) closeMinuteLocked() {
	m := e.cur
	dereg := int(e.dereg.Swap(0))
	coldRate := 0.0
	if e.inv > 0 {
		coldRate = 100 * float64(e.cold) / float64(e.inv)
	}
	savings, haveSavings := 0.0, false
	if e.acct != nil {
		savings, haveSavings = e.acct.MetricAt(attribution.MetricSavingsVsFixedUSD, m)
	}

	for i := range e.rules {
		rs := &e.rules[i]
		var v float64
		switch rs.rule.Metric {
		case MetricColdRatePct:
			v = coldRate
		case MetricKaMMB:
			v = e.kamMB
		case MetricDeregInvokes:
			v = float64(dereg)
		case MetricSavingsVsFixedUSD:
			if !haveSavings {
				// No priced minute to judge (accountant missing the
				// slot): treat as no data, not as a breach.
				rs.run = 0
				continue
			}
			v = savings
		}
		e.evaluateLocked(rs, m, v)
	}

	if e.stream.Stats().Subscribers > 0 {
		pt := MinutePoint{
			Minute: m, KeepAliveMB: e.kamMB, CostUSD: e.cost,
			Invocations: e.inv, ColdStarts: e.cold, ColdRatePct: coldRate,
			DeregInvokes: dereg,
		}
		if haveSavings {
			s := savings
			pt.SavingsVsFixedUSD = &s
		}
		e.stream.Publish(StreamMinute, pt)
	}

	e.kamMB, e.cost = 0, 0
	e.inv, e.cold = 0, 0
	e.dirty = false
}

// evaluateLocked advances one rule's state machine for closed minute m.
func (e *Engine) evaluateLocked(rs *ruleState, m int, v float64) {
	breach := rs.rule.Op.breached(v, rs.rule.Threshold)
	if !rs.firing {
		if !breach {
			rs.run = 0
			return
		}
		rs.run++
		if rs.run >= rs.rule.For && m >= rs.canFireAt {
			rs.firing = true
			rs.since = m - rs.rule.For + 1
			rs.run = 0
			e.notifyLocked(rs, StateFiring, m, v)
		}
		return
	}
	if !breach {
		rs.firing = false
		rs.canFireAt = m + rs.rule.Cooldown + 1
		e.notifyLocked(rs, StateResolved, m, v)
		rs.run = 0
	}
}

// notifyLocked publishes one transition to the stream and enqueues it for
// sink delivery, dropping (and counting) when the queue is full so the
// minute barrier is never blocked by a slow sink.
func (e *Engine) notifyLocked(rs *ruleState, state string, m int, v float64) {
	n := Notification{
		Rule:        rs.rule.Name,
		Metric:      rs.rule.Metric.String(),
		State:       state,
		Minute:      m,
		Value:       v,
		Op:          rs.rule.Op.String(),
		Threshold:   rs.rule.Threshold,
		SinceMinute: rs.since,
	}
	e.stream.Publish(StreamAlert, n)
	select {
	case e.queue <- n:
	default:
		e.dropped.Add(1)
	}
}

var _ telemetry.Observer = (*Engine)(nil)
