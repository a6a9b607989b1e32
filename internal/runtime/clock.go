// Package runtime is a live, event-driven serverless runtime built around
// the same keep-alive Policy interface the offline simulator uses. Where
// internal/cluster replays a recorded trace minute by minute, this package
// accepts invocations as they arrive (e.g. over HTTP, see cmd/pulsed),
// executes them against warm or cold containers with realistic latencies,
// and advances the policy on a minute tick — the shape of an OpenWhisk- or
// Knative-style integration of PULSE.
//
// Time is abstracted behind Clock so tests drive the runtime
// deterministically with a manual clock while cmd/pulsed runs it against
// wall time (optionally time-compressed).
package runtime

import (
	"fmt"
	"sync"
	"time"
)

// Clock abstracts the runtime's simulated execution delays.
type Clock interface {
	Sleep(d time.Duration)
}

// WallClock is the real-time clock, optionally scaled: a Compression of 60
// makes one simulated minute pass per wall-clock second, and a Compression
// of 0.5 runs simulated time at half speed (slow motion).
type WallClock struct {
	// Compression divides every Sleep: values > 1 compress time, values
	// in (0, 1) stretch it (slow motion), and 0 or 1 mean real time.
	// Negative values are treated as unset (real time).
	Compression float64
}

// Sleep implements Clock.
func (w WallClock) Sleep(d time.Duration) {
	if w.Compression > 0 && w.Compression != 1 {
		d = time.Duration(float64(d) / w.Compression)
	}
	time.Sleep(d)
}

// ManualClock is a deterministic test clock: Sleep returns immediately and
// advances the clock; Advance moves time explicitly.
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewManualClock starts a manual clock at the given instant.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Sleep implements Clock by advancing the clock without blocking.
func (m *ManualClock) Sleep(d time.Duration) {
	m.Advance(d)
}

// Advance moves the clock forward. Negative advances are a programming
// error and panic.
func (m *ManualClock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("runtime: clock advanced by negative duration %v", d))
	}
	m.mu.Lock()
	m.now = m.now.Add(d)
	m.mu.Unlock()
}
