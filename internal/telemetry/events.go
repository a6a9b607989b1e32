package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event kinds recorded by the decision log. Every controller decision the
// PULSE policy takes is one of these, so an operator (or a test) can replay
// exactly why the system looked the way it did at any minute.
const (
	// KindSchedule is one function-centric plan: after an invocation, the
	// individual optimizer commits a variant per minute of the keep-alive
	// window.
	KindSchedule = "schedule"
	// KindPeakEnter marks the first minute of an Algorithm 1 peak episode.
	KindPeakEnter = "peak_enter"
	// KindPeakExit marks the first non-peak minute after an episode.
	KindPeakExit = "peak_exit"
	// KindDowngrade is one Algorithm 2 downgrade, with the full utility
	// breakdown Uv = Ai + Pr + Ip that selected the victim.
	KindDowngrade = "downgrade"
	// KindMinute is the platform's per-minute keep-alive rollup.
	KindMinute = "minute"
	// KindRegister records a function coming into existence online.
	KindRegister = "register"
	// KindDeregister records a function slot being retired online.
	KindDeregister = "deregister"
)

// Event is one decision-log record. The struct is flat so the ring buffer
// stores values without per-event allocation (each ring slot owns the backing
// storage of its Plan and Probs and reuses it); which fields are meaningful
// depends on Kind. Function is -1 for events not scoped to a function.
type Event struct {
	Seq    uint64 `json:"seq"`
	Minute int    `json:"minute"`
	Kind   string `json:"kind"`

	Function int `json:"function"`

	// Name is the function's registered name (lifecycle events only).
	Name string `json:"name,omitempty"`

	// Schedule fields: the planned variant per offset minute 1..window and
	// the invocation probability that chose it.
	Plan  []int     `json:"plan,omitempty"`
	Probs []float64 `json:"probs,omitempty"`

	// Downgrade fields (Algorithm 2).
	FromVariant int     `json:"fromVariant"`
	ToVariant   int     `json:"toVariant"`
	Ai          float64 `json:"ai"`
	Pr          float64 `json:"pr"`
	Ip          float64 `json:"ip"`
	Uv          float64 `json:"uv"`

	// Peak and minute fields (Algorithm 1 / platform accounting).
	KaMMB       float64 `json:"kaMMB"`
	PriorKaMMB  float64 `json:"priorKaMMB"`
	TargetKaMMB float64 `json:"targetKaMMB"`
	CostUSD     float64 `json:"costUSD"`
	Downgrades  int     `json:"downgrades"`
}

// EventLog is a bounded in-memory ring of decision events with an optional
// JSONL sink: every appended event is also encoded as one JSON line to the
// sink, so a long-running daemon can keep a full audit trail on disk while
// the ring serves recent history over HTTP.
type EventLog struct {
	mu      sync.Mutex
	buf     []Event
	start   int    // index of the oldest buffered event
	n       int    // buffered events (≤ cap(buf))
	seq     uint64 // total events ever appended
	sink    io.Writer
	sinkErr error
	taps    []func(Event)
}

// DefaultEventCapacity bounds the ring when no capacity is configured.
const DefaultEventCapacity = 4096

// NewEventLog creates a ring holding up to capacity events (0 selects
// DefaultEventCapacity). sink may be nil; when set, events are appended to
// it as JSON lines. The first sink write error stops further sink writes
// and is reported by SinkErr — the in-memory log keeps working.
func NewEventLog(capacity int, sink io.Writer) (*EventLog, error) {
	if capacity == 0 {
		capacity = DefaultEventCapacity
	}
	if capacity < 0 {
		return nil, fmt.Errorf("telemetry: negative event capacity %d", capacity)
	}
	return &EventLog{buf: make([]Event, capacity), sink: sink}, nil
}

// Append stamps the event with the next sequence number and records it. It
// returns the assigned sequence number. The ring copies e.Plan and e.Probs
// into the slot's own storage, so the caller's slices are not retained.
func (l *EventLog) Append(e Event) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.seq
	l.seq++
	if c := len(l.buf); c > 0 {
		i := (l.start + l.n) % c
		slot := &l.buf[i]
		plan, probs := slot.Plan[:0], slot.Probs[:0]
		*slot = e
		slot.Plan = append(plan, e.Plan...)
		slot.Probs = append(probs, e.Probs...)
		if l.n < c {
			l.n++
		} else {
			l.start = (l.start + 1) % c
		}
	}
	if l.sink != nil && l.sinkErr == nil {
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			_, err = l.sink.Write(line)
		}
		if err != nil {
			l.sinkErr = err
		}
	}
	for _, tap := range l.taps {
		tap(e)
	}
	return e.Seq
}

// Tap registers fn to be called with every subsequently appended event,
// after it is stamped and buffered. Taps run under the log's lock on the
// appender's goroutine — they MUST NOT block or call back into the log
// (a live-stream broadcaster with non-blocking fan-out is the intended
// consumer), and they must not keep the event's Plan or Probs past the call:
// the slices are the appender's. Register taps before the feed starts; Tap
// is not safe concurrently with Append.
func (l *EventLog) Tap(fn func(Event)) {
	if fn == nil {
		return
	}
	l.taps = append(l.taps, fn)
}

// Total returns the number of events ever appended (buffered or evicted).
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SinkErr returns the first error the JSONL sink hit, if any.
func (l *EventLog) SinkErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// Filter selects events out of the ring. The zero value matches everything.
type Filter struct {
	// Kind, when non-empty, matches only events of that kind.
	Kind string
	// HasFunction restricts to events scoped to Function.
	HasFunction bool
	Function    int
	// SinceSeq keeps only events with Seq ≥ SinceSeq (for incremental
	// polling: pass the last seen seq + 1).
	SinceSeq uint64
	// Limit caps the result to the most recent Limit matches (0 = all
	// buffered).
	Limit int
}

func (f Filter) matches(e *Event) bool {
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if f.HasFunction && e.Function != f.Function {
		return false
	}
	return e.Seq >= f.SinceSeq
}

// Select returns the buffered events matching the filter in append order.
// Plan and Probs are copies: the ring reuses its own.
func (l *EventLog) Select(f Filter) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for i := 0; i < l.n; i++ {
		e := &l.buf[(l.start+i)%len(l.buf)]
		if f.matches(e) {
			out = append(out, *e)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	for i := range out {
		out[i].Plan = append([]int(nil), out[i].Plan...)
		out[i].Probs = append([]float64(nil), out[i].Probs...)
	}
	return out
}
