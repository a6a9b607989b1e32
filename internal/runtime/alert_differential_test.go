package runtime

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// alertProbeRules is a rule set tuned to actually transition on the
// harness workloads: a cold-rate rule with hysteresis, a low-threshold
// keep-alive rule that flaps with load, and a savings rule exercising the
// attribution ring. Flapping rules are the sharpest determinism probe —
// one divergent minute anywhere in the feed shifts a transition.
func alertProbeRules() []alert.Rule {
	return []alert.Rule{
		{Name: "cold-spike", Metric: alert.MetricColdRatePct, Op: alert.OpAbove, Threshold: 20, For: 2, Cooldown: 3},
		{Name: "kam-any", Metric: alert.MetricKaMMB, Op: alert.OpAbove, Threshold: 1, For: 1, Cooldown: 0},
		{Name: "savings-reg", Metric: alert.MetricSavingsVsFixedUSD, Op: alert.OpBelow, Threshold: 0, For: 1, Cooldown: 0},
	}
}

// alertProbe is one feed's engine, accountant, and collector, attached as
// a single Observer.
type alertProbe struct {
	obs    telemetry.Observer
	engine *alert.Engine
	sink   *alert.CollectorSink
}

func newAlertProbe(t testing.TB, cat *models.Catalog, asg models.Assignment) *alertProbe {
	t.Helper()
	acct, err := attribution.New(attribution.Config{Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	sink := &alert.CollectorSink{}
	// The queue must hold every transition the replay can produce: a full
	// queue drops notifications (correct for a live daemon, fatal for a
	// sequence-equality assertion when the replay outpaces the dispatcher).
	engine, err := alert.NewEngine(alert.Config{
		Rules:       alertProbeRules(),
		Sinks:       []alert.Sink{sink},
		Attribution: acct,
		QueueSize:   1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The accountant precedes the engine, so a minute is priced before the
	// engine evaluates it — the same chain order pulsed wires.
	return &alertProbe{obs: telemetry.Multi(acct, engine), engine: engine, sink: sink}
}

// finish flushes the final open minute and drains the delivery queue.
func (p *alertProbe) finish(t testing.TB) []alert.Notification {
	t.Helper()
	p.engine.Flush()
	if err := p.engine.Close(); err != nil {
		t.Fatal(err)
	}
	return p.sink.Notifications()
}

// replayAlertRuntime feeds a trace through a live Runtime observing probe:
// every feed steps Horizon-1 times so minute H-1 ends open, matching the
// cluster engine's feed shape, and Flush closes it identically everywhere.
// Serial-mode feeds replay sequentially; epoch feeds replay
// with one goroutine per function.
func replayAlertRuntime(t *testing.T, cat *models.Catalog, asg models.Assignment, tr *trace.Trace, mode string) []alert.Notification {
	t.Helper()
	probe := newAlertProbe(t, cat, asg)
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Catalog:    cat,
		Assignment: asg,
		Policy:     p,
		Clock:      NewManualClock(time.Unix(0, 0)),
		Cost:       cluster.DefaultCostModel(),
		Observer:   probe.obs,
		Mode:       mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for m := 0; m < tr.Horizon; m++ {
		if mode == ModeSerial {
			for fn := range tr.Functions {
				for i := 0; i < tr.Functions[fn].Counts[m]; i++ {
					if _, err := rt.Invoke(fn); err != nil {
						t.Fatal(err)
					}
				}
			}
		} else {
			var wg sync.WaitGroup
			for fn := range tr.Functions {
				n := tr.Functions[fn].Counts[m]
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(fn, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := rt.Invoke(fn); err != nil {
							t.Error(err)
							return
						}
					}
				}(fn, n)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
		}
		if m < tr.Horizon-1 {
			if err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return probe.finish(t)
}

// TestDifferentialAlertFirings replays the harness workloads through three
// feeds — the serial runtime, the lock-free epoch runtime under
// per-function goroutines, and the cluster engine driven by a 4-shard PULSE
// controller — and requires the exact same alert
// transition sequence (rule, state, minute, value, everything) from each.
// Alert firings are part of the deterministic surface: same trace ⇒ same
// firing minutes, no matter how the platform is parallelized.
func TestDifferentialAlertFirings(t *testing.T) {
	cat := models.PaperCatalog()
	fired := false
	for _, wl := range runtimeWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			asg := make(models.Assignment, len(wl.tr.Functions))
			for i := range asg {
				asg[i] = i % len(cat.Families)
			}

			serial := replayAlertRuntime(t, cat, asg, wl.tr, ModeSerial)
			epoch := replayAlertRuntime(t, cat, asg, wl.tr, ModeEpoch)

			simProbe := newAlertProbe(t, cat, asg)
			p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cluster.Run(cluster.Config{
				Trace: wl.tr, Catalog: cat, Assignment: asg,
				Cost: cluster.DefaultCostModel(), Observer: simProbe.obs,
			}, p); err != nil {
				t.Fatal(err)
			}
			sim := simProbe.finish(t)

			if !reflect.DeepEqual(serial, epoch) {
				t.Errorf("serial vs epoch firings diverge:\nserial: %s\nepoch:  %s",
					describeNotifications(serial), describeNotifications(epoch))
			}
			if !reflect.DeepEqual(serial, sim) {
				t.Errorf("runtime vs sharded-sim firings diverge:\nruntime: %s\nsim:     %s",
					describeNotifications(serial), describeNotifications(sim))
			}
			if len(serial) > 0 {
				fired = true
			}
		})
	}
	if !fired && !t.Failed() {
		t.Error("no workload produced a single alert transition: the probe rules are vacuous")
	}
}

func describeNotifications(ns []alert.Notification) string {
	out := ""
	for _, n := range ns {
		out += fmt.Sprintf("[%s %s @%d] ", n.Rule, n.State, n.Minute)
	}
	if out == "" {
		out = "(none)"
	}
	return out
}

// TestDifferentialAlertsWithStalledSubscriber attaches the full live ops
// surface — broadcaster with a stalled 1-slot subscriber, alert engine
// publishing to it — to the default (epoch) runtime and proves the serving
// path is unperturbed: stats and alert transitions still match a bare
// serial replay exactly, and the stalled subscriber's queue really did
// overflow (so the drop path, not a conveniently idle stream, is what's
// under test). Run under -race by the sharded CI job.
func TestDifferentialAlertsWithStalledSubscriber(t *testing.T) {
	cat := models.PaperCatalog()
	wl := runtimeWorkloads(t)[0]
	asg := make(models.Assignment, len(wl.tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}

	serialFirings := replayAlertRuntime(t, cat, asg, wl.tr, ModeSerial)
	serialStats := func() Stats {
		p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{
			Catalog: cat, Assignment: asg, Policy: p,
			Clock: NewManualClock(time.Unix(0, 0)), Cost: cluster.DefaultCostModel(), Mode: ModeSerial,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for m := 0; m < wl.tr.Horizon; m++ {
			for fn := range wl.tr.Functions {
				for i := 0; i < wl.tr.Functions[fn].Counts[m]; i++ {
					if _, err := rt.Invoke(fn); err != nil {
						t.Fatal(err)
					}
				}
			}
			if m < wl.tr.Horizon-1 {
				rt.Step()
			}
		}
		return rt.Stats()
	}()

	// The instrumented epoch runtime: broadcaster + stalled subscriber +
	// engine streaming minute points into it.
	stream := alert.NewBroadcaster()
	stalled := stream.Subscribe(1)
	defer stalled.Close()

	acct, err := attribution.New(attribution.Config{Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	sink := &alert.CollectorSink{}
	engine, err := alert.NewEngine(alert.Config{
		Rules:       alertProbeRules(),
		Sinks:       []alert.Sink{sink},
		Attribution: acct,
		Stream:      stream,
		QueueSize:   1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Catalog: cat, Assignment: asg, Policy: p,
		Clock: NewManualClock(time.Unix(0, 0)), Cost: cluster.DefaultCostModel(),
		Observer: telemetry.Multi(acct, engine),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for m := 0; m < wl.tr.Horizon; m++ {
		var wg sync.WaitGroup
		for fn := range wl.tr.Functions {
			n := wl.tr.Functions[fn].Counts[m]
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(fn, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := rt.Invoke(fn); err != nil {
						t.Error(err)
						return
					}
				}
			}(fn, n)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if m < wl.tr.Horizon-1 {
			if err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	engine.Flush()
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}

	if got := rt.Stats(); !reflect.DeepEqual(serialStats, got) {
		t.Errorf("stats diverge under stalled subscriber:\nserial: %+v\nepoch:  %+v", serialStats, got)
	}
	if got := sink.Notifications(); !reflect.DeepEqual(serialFirings, got) {
		t.Errorf("firings diverge under stalled subscriber:\nserial: %s\nepoch:  %s",
			describeNotifications(serialFirings), describeNotifications(got))
	}
	if stalled.Dropped() == 0 {
		t.Error("stalled subscriber dropped nothing: the slow-consumer path was not exercised")
	}
}
