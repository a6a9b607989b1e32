// Package provenance explains the system's decisions and its own cost.
// It holds the per-minute decision provenance recorder (the "why" behind
// every keep-alive choice — Algorithm 1/2 inputs and outputs, kept in
// fixed-capacity identity-keyed rings served via GET /why) and the sampled
// per-invocation tracer (span-shaped records of 1-in-K invocations served
// via GET /traces). Both are observers in the telemetry chain; neither
// touches the invocation fast path when disabled.
package provenance

import (
	"sync"
	"sync/atomic"
)

// DefaultTraceCapacity bounds the trace ring when TracerConfig leaves
// Capacity zero.
const DefaultTraceCapacity = 256

// Trace is one sampled invocation span: where it landed (minute, function,
// stripe), what served it (variant, cold/warm), and what the serving path
// cost (seqlock retries, wall latency). Function and Stripe coincide today
// — the runtime stripes by function slot — but are recorded separately so
// a future stripe remapping keeps old traces readable.
type Trace struct {
	// Seq is the 1-based index of this trace among all recorded traces.
	Seq            uint64  `json:"seq"`
	Minute         int     `json:"minute"`
	Function       int     `json:"function"`
	Stripe         int     `json:"stripe"`
	Variant        string  `json:"variant,omitempty"`
	Cold           bool    `json:"cold"`
	SeqlockRetries int     `json:"seqlock_retries"`
	LatencyUs      float64 `json:"latency_us"`
	// Error carries the invocation error, if any — errored invocations are
	// sampled like served ones, so trace counts depend only on how many
	// Invoke calls arrived, never on their outcomes or interleaving.
	Error string `json:"error,omitempty"`
}

// TracerStats summarizes a tracer for the /traces endpoint.
type TracerStats struct {
	// Enabled reports whether sampling is on (Stride > 0).
	Enabled bool `json:"enabled"`
	// Stride is the sampling period K: one of every K Invoke calls is
	// recorded. 0 when disabled.
	Stride int64 `json:"stride"`
	// Attempts counts Invoke calls seen while sampling was enabled.
	Attempts uint64 `json:"attempts"`
	// Sampled counts traces recorded; Capacity bounds how many are
	// retained.
	Sampled  uint64 `json:"sampled"`
	Capacity int    `json:"capacity"`
}

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Stride enables 1-in-Stride sampling; <= 0 disables the tracer.
	Stride int64
	// Capacity bounds the retained-trace ring (0 selects
	// DefaultTraceCapacity).
	Capacity int
}

// Tracer is the sampled per-invocation tracer. The fast path is
// Sample(): with sampling disabled it is a single field read, allocates
// nothing, and takes no lock — the pinned cost of carrying a tracer on the
// runtime's Invoke path. When enabled, every Invoke increments one shared
// counter and every Stride-th call is recorded.
//
// Sampling by attempt counter (not by outcome, not by reservoir) keeps the
// recorded-trace *count* a pure function of how many Invoke calls arrived:
// floor(attempts / Stride) regardless of scheduling, mode, or errors —
// the property the cross-mode differential harness pins. Which attempts
// land on the stride boundary does vary with goroutine interleaving, so
// trace *contents* are compared only per-mode, never across modes.
type Tracer struct {
	stride int64         // K; <= 0 disabled; fixed at construction
	count  atomic.Uint64 // Invoke attempts while enabled

	mu      sync.Mutex
	ring    []Trace
	n       uint64 // total traces recorded (ring writes)
	tapSwap atomic.Pointer[func(Trace)]
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	c := cfg.Capacity
	if c <= 0 {
		c = DefaultTraceCapacity
	}
	return &Tracer{stride: cfg.Stride, ring: make([]Trace, c)}
}

// Sample reports whether the caller should record this invocation. It is
// nil-safe (a nil tracer never samples) and, when sampling is disabled,
// costs one read of the fixed stride with zero allocations — the fast-path
// contract pinned by the runtime's AllocsPerRun tests.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	k := t.stride
	if k <= 0 {
		return false
	}
	return t.count.Add(1)%uint64(k) == 0
}

// Tap installs fn to receive every recorded trace (nil uninstalls). The
// daemon uses it to feed the SSE broadcaster without provenance depending
// on the alert package. fn runs on the invoking goroutine and must be
// cheap and concurrency-safe.
func (t *Tracer) Tap(fn func(Trace)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.tapSwap.Store(nil)
		return
	}
	t.tapSwap.Store(&fn)
}

// Record retains one trace (overwriting the oldest once the ring is full)
// and forwards it to the tap, assigning its Seq. Callers invoke it only
// when Sample returned true.
func (t *Tracer) Record(tr Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.n++
	tr.Seq = t.n
	t.ring[(t.n-1)%uint64(len(t.ring))] = tr
	t.mu.Unlock()
	if fn := t.tapSwap.Load(); fn != nil {
		(*fn)(tr)
	}
}

// Snapshot returns up to limit retained traces, oldest first (limit <= 0
// returns everything retained).
func (t *Tracer) Snapshot(limit int) []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	have := t.n
	if have > uint64(len(t.ring)) {
		have = uint64(len(t.ring))
	}
	if limit > 0 && uint64(limit) < have {
		have = uint64(limit)
	}
	out := make([]Trace, 0, have)
	for i := t.n - have; i < t.n; i++ {
		out = append(out, t.ring[i%uint64(len(t.ring))])
	}
	return out
}

// Stats returns the tracer's sampling counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	sampled := t.n
	capacity := len(t.ring)
	t.mu.Unlock()
	stride := t.stride
	if stride < 0 {
		stride = 0
	}
	return TracerStats{
		Enabled:  stride > 0,
		Stride:   stride,
		Attempts: t.count.Load(),
		Sampled:  sampled,
		Capacity: capacity,
	}
}
