package alert

import (
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// feedMinute pushes one synthetic minute into the engine: the rollup that
// opens minute m (closing m-1), then m's invocation samples.
func feedMinute(e *Engine, m int, kamMB float64, inv, cold int) {
	e.ObserveMinute(telemetry.MinuteSample{Minute: m, KeepAliveMB: kamMB})
	if inv > cold {
		e.ObserveInvocation(telemetry.InvocationSample{Minute: m, Count: inv - cold})
	}
	if cold > 0 {
		e.ObserveInvocation(telemetry.InvocationSample{Minute: m, Cold: true, Count: cold})
	}
}

// drain waits for the engine's delivery goroutine to hand everything
// queued so far to the sinks.
func drain(t *testing.T, e *Engine, c *CollectorSink, want int) []Notification {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ns := c.Notifications()
		if len(ns) >= want {
			return ns
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink has %d notifications, want %d: %+v", len(ns), want, ns)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEngineFireResolveCooldown(t *testing.T) {
	c := &CollectorSink{}
	e, err := NewEngine(Config{
		Rules: []Rule{{Name: "cold", Metric: MetricColdRatePct, Op: OpAbove, Threshold: 50, For: 2, Cooldown: 3}},
		Sinks: []Sink{c},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Minutes 0-1 breach (100% cold), 2 clears, 3-4 breach again but fall
	// inside the cooldown (resolve at 2 quiets 3..5), 6-7 breach and re-fire.
	traffic := []struct{ inv, cold int }{
		{4, 4}, {4, 4}, // 0,1: breach ×2 → fire at 1
		{4, 0},         // 2: clear → resolve
		{4, 4}, {4, 4}, // 3,4: breach ×2 but canFireAt=6
		{4, 0},         // 5: clear, run resets
		{4, 4}, {4, 4}, // 6,7: breach ×2 → fire at 7
	}
	for m, tr := range traffic {
		feedMinute(e, m, 0, tr.inv, tr.cold)
	}
	e.ObserveMinute(telemetry.MinuteSample{Minute: len(traffic)}) // close the last minute

	ns := drain(t, e, c, 3)
	want := []struct {
		state  string
		minute int
		since  int
	}{
		{StateFiring, 1, 0},
		{StateResolved, 2, 0},
		{StateFiring, 7, 6},
	}
	if len(ns) != len(want) {
		t.Fatalf("got %d notifications %+v, want %d", len(ns), ns, len(want))
	}
	for i, w := range want {
		n := ns[i]
		if n.State != w.state || n.Minute != w.minute || n.SinceMinute != w.since || n.Rule != "cold" {
			t.Errorf("notification %d: %+v, want %s at %d since %d", i, n, w.state, w.minute, w.since)
		}
	}
	st := e.Status()
	if !st.Enabled || st.Rules != 1 || len(st.Firing) != 1 || st.Firing[0] != "cold" {
		t.Errorf("status %+v", st)
	}
}

func TestEngineDeregInvokesMetric(t *testing.T) {
	c := &CollectorSink{}
	e, err := NewEngine(Config{
		Rules: []Rule{{Name: "dereg", Metric: MetricDeregInvokes, Op: OpAbove, Threshold: 0, For: 1}},
		Sinks: []Sink{c},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	feedMinute(e, 0, 0, 1, 0)
	e.RecordDeregisteredInvoke()
	e.RecordDeregisteredInvoke()
	feedMinute(e, 1, 0, 1, 0) // closes 0 → fires with value 2
	feedMinute(e, 2, 0, 1, 0) // closes 1 (no dereg) → resolves

	ns := drain(t, e, c, 2)
	if ns[0].State != StateFiring || ns[0].Minute != 0 || ns[0].Value != 2 {
		t.Errorf("firing %+v", ns[0])
	}
	if ns[1].State != StateResolved || ns[1].Minute != 1 {
		t.Errorf("resolved %+v", ns[1])
	}
}

func TestEngineKaMRuleAndFlush(t *testing.T) {
	c := &CollectorSink{}
	e, err := NewEngine(Config{
		Rules: []Rule{{Name: "kam", Metric: MetricKaMMB, Op: OpAbove, Threshold: 1000, For: 1}},
		Sinks: []Sink{c},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.ObserveMinute(telemetry.MinuteSample{Minute: 0, KeepAliveMB: 2048})
	// The feed ends with minute 0 still open; Flush closes and evaluates it.
	e.Flush()
	ns := drain(t, e, c, 1)
	if ns[0].State != StateFiring || ns[0].Minute != 0 || ns[0].Value != 2048 {
		t.Errorf("flush firing %+v", ns[0])
	}
	// Flushing again must not re-evaluate anything.
	e.Flush()
	time.Sleep(10 * time.Millisecond)
	if got := c.Notifications(); len(got) != 1 {
		t.Errorf("double flush delivered %d notifications", len(got))
	}
}

func TestNewEngineRejects(t *testing.T) {
	if _, err := NewEngine(Config{Rules: []Rule{
		{Name: "savings", Metric: MetricSavingsVsFixedUSD, Op: OpBelow, Threshold: 0, For: 1},
	}}); err == nil {
		t.Error("savings rule without an accountant accepted")
	}
	if _, err := NewEngine(Config{Rules: []Rule{
		{Name: "dup", Metric: MetricKaMMB, Op: OpAbove, Threshold: 1, For: 1},
		{Name: "dup", Metric: MetricColdRatePct, Op: OpAbove, Threshold: 1, For: 1},
	}}); err == nil {
		t.Error("duplicate rule names accepted")
	}
	if _, err := NewEngine(Config{Rules: []Rule{{Name: "bad", For: 0}}}); err == nil {
		t.Error("invalid rule accepted")
	}
}

// A nil engine is valid everywhere — the disabled configuration.
func TestEngineNilSafe(t *testing.T) {
	var e *Engine
	e.ObserveMinute(telemetry.MinuteSample{Minute: 1})
	e.ObserveInvocation(telemetry.InvocationSample{Minute: 1})
	e.RecordDeregisteredInvoke()
	e.Flush()
	if err := e.Close(); err != nil {
		t.Error(err)
	}
	st := e.Status()
	if st.Enabled || st.Firing == nil {
		t.Errorf("nil engine status %+v", st)
	}
}

// Steady state — rules configured but nothing transitioning, no stream
// subscribers — must not allocate on the observation hot path.
func TestEngineSteadyStateAllocations(t *testing.T) {
	e, err := NewEngine(Config{
		Rules:  DefaultRules(false),
		Stream: NewBroadcaster(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	feedMinute(e, 0, 100, 10, 0)
	m := 1
	allocs := testing.AllocsPerRun(500, func() {
		feedMinute(e, m, 100, 10, 0)
		m++
	})
	if allocs != 0 {
		t.Errorf("steady-state minute costs %.1f allocs, want 0", allocs)
	}
}

func TestEngineCloseStopsEvaluation(t *testing.T) {
	c := &CollectorSink{}
	e, err := NewEngine(Config{
		Rules: []Rule{{Name: "kam", Metric: MetricKaMMB, Op: OpAbove, Threshold: 1, For: 1}},
		Sinks: []Sink{c},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Samples after Close are ignored, not a panic on a closed channel.
	e.ObserveMinute(telemetry.MinuteSample{Minute: 0, KeepAliveMB: 100})
	e.ObserveMinute(telemetry.MinuteSample{Minute: 1, KeepAliveMB: 100})
	e.Flush()
	if got := c.Notifications(); len(got) != 0 {
		t.Errorf("closed engine delivered %+v", got)
	}
}
