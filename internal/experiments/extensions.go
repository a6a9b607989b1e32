package experiments

import (
	"fmt"
	"reflect"

	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/report"
	"github.com/pulse-serverless/pulse/internal/sim"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// WindowSweepPoint compares PULSE to a fixed policy with the *same*
// keep-alive window, for one window length.
type WindowSweepPoint struct {
	WindowMinutes int
	sim.Improvement
}

// ExtensionWindowSweep evaluates the paper's closing claim that "the core
// idea and design behind PULSE are flexible and can be adapted to different
// keep-alive durations": for each window length, both the fixed baseline
// and PULSE use that window, so the improvement isolates the mixed-quality
// mechanism from the window choice itself.
func ExtensionWindowSweep(opts Options) ([]WindowSweepPoint, error) {
	e, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	windows := []int{5, 10, 20}
	var factories []sim.NamedFactory
	for _, w := range windows {
		w := w
		factories = append(factories,
			sim.NamedFactory{
				Name: fmt.Sprintf("openwhisk-w%d", w),
				New: func(_ int, asg models.Assignment) (cluster.Policy, error) {
					return policy.NewFixed(e.catalog, asg, w, policy.QualityHighest)
				},
			},
			sim.NamedFactory{
				Name: fmt.Sprintf("pulse-w%d", w),
				New: func(_ int, asg models.Assignment) (cluster.Policy, error) {
					return core.New(core.Config{Catalog: e.catalog, Assignment: asg, Window: w})
				},
			},
		)
	}
	aggs, err := sim.RunExperiment(sim.ExperimentConfig{
		Trace:    e.trace,
		Catalog:  e.catalog,
		Cost:     e.cost,
		Runs:     e.opts.Runs,
		Seed:     e.opts.Seed,
		Workers:  e.opts.Workers,
		Observer: e.opts.Observer,
	}, factories)
	if err != nil {
		return nil, err
	}
	var out []WindowSweepPoint
	t := report.NewTable("Extension — PULSE vs fixed policy at matched keep-alive windows (% improvement)",
		"window", "keep-alive cost", "service time", "accuracy")
	for i, w := range windows {
		imp, err := sim.ImprovementOver(aggs[2*i], aggs[2*i+1])
		if err != nil {
			return nil, err
		}
		out = append(out, WindowSweepPoint{WindowMinutes: w, Improvement: imp})
		if err := t.AddRow(fmt.Sprintf("%d min", w),
			report.Pct(imp.CostPct), report.Pct(imp.ServiceTimePct), report.Pct(imp.AccuracyPct)); err != nil {
			return nil, err
		}
	}
	if err := t.Render(e.opts.Out); err != nil {
		return nil, err
	}
	return out, nil
}

// TailLatencyRow holds one policy's service-time distribution.
type TailLatencyRow struct {
	Policy                 string
	P50Sec, P95Sec, P99Sec float64
	MaxSec                 float64
}

// ExtensionTailLatency reports per-invocation service-time percentiles for
// the fixed policy and PULSE — the tail view the paper's total-service-time
// metric hides: PULSE keeps tails in check because the low-quality floor
// converts would-be cold starts into fast warm starts.
func ExtensionTailLatency(opts Options) ([]TailLatencyRow, error) {
	e, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	cfg := e.clusterConfig(false)
	cfg.RecordServiceTimes = true

	run := func(p cluster.Policy) (TailLatencyRow, error) {
		res, err := cluster.Run(cfg, p)
		if err != nil {
			return TailLatencyRow{}, err
		}
		row := TailLatencyRow{Policy: res.Policy}
		for _, q := range []struct {
			p   float64
			dst *float64
		}{{50, &row.P50Sec}, {95, &row.P95Sec}, {99, &row.P99Sec}, {100, &row.MaxSec}} {
			v, err := res.ServiceTimePercentile(q.p)
			if err != nil {
				return TailLatencyRow{}, err
			}
			*q.dst = v
		}
		return row, nil
	}

	ow, err := e.newOpenWhisk()
	if err != nil {
		return nil, err
	}
	rowOW, err := run(ow)
	if err != nil {
		return nil, err
	}
	pulse, err := e.newPulse(core.Config{})
	if err != nil {
		return nil, err
	}
	rowPulse, err := run(pulse)
	if err != nil {
		return nil, err
	}
	rows := []TailLatencyRow{rowOW, rowPulse}
	t := report.NewTable("Extension — per-invocation service-time percentiles (seconds)",
		"policy", "P50", "P95", "P99", "max")
	for _, r := range rows {
		if err := t.AddRow(r.Policy, report.F(r.P50Sec), report.F(r.P95Sec), report.F(r.P99Sec), report.F(r.MaxSec)); err != nil {
			return nil, err
		}
	}
	if err := t.Render(e.opts.Out); err != nil {
		return nil, err
	}
	return rows, nil
}

// ChurnPoint summarizes the lifecycle extension: PULSE versus the fixed
// baseline on a trace where functions register and deregister while the
// replay is running.
type ChurnPoint struct {
	Functions   int // functions appearing anywhere in the trace
	InitialLive int // live at minute 0
	Arrivals    int // registrations after minute 0
	Departures  int // deregistrations before the horizon
	sim.Improvement
}

// ExtensionChurn evaluates PULSE beyond the paper's static-population
// setting: half the functions (those after the first) get a finite
// lifetime, so both policies must absorb online register/deregister calls
// mid-run. Each run constructs its policies from the minute-0 population
// only — later arrivals reach them exclusively through the lifecycle API,
// starting with cold histories by construction — and the engine replays
// the lifecycle events between minutes (cluster.Run). The headline
// is the same cost/service/accuracy improvement as Figure 6a: the
// mixed-quality win must not depend on knowing the population up front.
func ExtensionChurn(opts Options) (ChurnPoint, error) {
	opts = opts.withDefaults()
	tr, err := trace.Generate(trace.GeneratorConfig{
		Seed:       opts.Seed,
		Horizon:    opts.HorizonMinutes,
		Archetypes: opts.Archetypes,
		Churn:      0.5,
	})
	if err != nil {
		return ChurnPoint{}, err
	}
	if !tr.HasChurn() {
		return ChurnPoint{}, fmt.Errorf("experiments: churn trace (seed %d) has no lifecycle events", opts.Seed)
	}
	cat := models.PaperCatalog()
	factories := []sim.NamedFactory{
		{
			Name: "openwhisk-churn",
			New: func(_ int, asg models.Assignment) (cluster.Policy, error) {
				names, init, err := cluster.InitialPopulation(tr, asg)
				if err != nil {
					return nil, err
				}
				return policy.NewFixedNamed(cat, init, cluster.DefaultKeepAliveWindow, policy.QualityHighest, names)
			},
		},
		{
			Name: "pulse-churn",
			New: func(_ int, asg models.Assignment) (cluster.Policy, error) {
				names, init, err := cluster.InitialPopulation(tr, asg)
				if err != nil {
					return nil, err
				}
				return core.New(core.Config{Catalog: cat, Assignment: init, Names: names})
			},
		},
	}
	aggs, err := sim.RunExperiment(sim.ExperimentConfig{
		Trace:    tr,
		Catalog:  cat,
		Cost:     cluster.DefaultCostModel(),
		Runs:     opts.Runs,
		Seed:     opts.Seed,
		Workers:  opts.Workers,
		Observer: opts.Observer,
	}, factories)
	if err != nil {
		return ChurnPoint{}, err
	}
	imp, err := sim.ImprovementOver(aggs[0], aggs[1])
	if err != nil {
		return ChurnPoint{}, err
	}
	pt := ChurnPoint{Functions: len(tr.Functions), Improvement: imp}
	for i := range tr.Functions {
		f := &tr.Functions[i]
		if f.Start == 0 {
			pt.InitialLive++
		} else {
			pt.Arrivals++
		}
		if f.EndMinute(tr.Horizon) != tr.Horizon {
			pt.Departures++
		}
	}
	t := report.NewTable("Extension — PULSE vs fixed policy under function churn (% improvement)",
		"initial live", "arrivals", "departures", "keep-alive cost", "service time", "accuracy")
	if err := t.AddRow(
		fmt.Sprintf("%d of %d", pt.InitialLive, pt.Functions),
		fmt.Sprintf("%d", pt.Arrivals),
		fmt.Sprintf("%d", pt.Departures),
		report.Pct(pt.CostPct), report.Pct(pt.ServiceTimePct), report.Pct(pt.AccuracyPct)); err != nil {
		return ChurnPoint{}, err
	}
	if err := t.Render(opts.Out); err != nil {
		return ChurnPoint{}, err
	}
	return pt, nil
}

// AlertReplayPoint summarizes the alert-determinism extension: the alert
// transitions produced by replaying one trace through the cluster engine,
// plus the proof that a 4-shard PULSE controller produces the identical
// sequence.
type AlertReplayPoint struct {
	Rules       int // rules evaluated
	Transitions int // firing + resolved transitions over the horizon
	Firing      int
	Resolved    int
	// Deterministic is true when the serial and 4-shard controllers
	// produced byte-for-byte identical notification sequences.
	Deterministic bool
	Notifications []alert.Notification
}

// ExtensionAlerts replays the default trace through the cluster engine
// with the live alert pipeline attached — attribution accountant feeding a
// rule engine, exactly as pulsed wires it — twice: once with a serial
// PULSE controller and once with a 4-shard controller. Alert firings are
// part of the platform's deterministic surface, so both replays must
// produce the identical transition sequence (same rules, same minutes,
// same values); any divergence fails the experiment. The table lists the
// transitions, i.e. the pages an operator would have received.
func ExtensionAlerts(opts Options) (AlertReplayPoint, error) {
	e, err := newEnv(opts)
	if err != nil {
		return AlertReplayPoint{}, err
	}
	rules := []alert.Rule{
		{Name: "kam-live", Metric: alert.MetricKaMMB, Op: alert.OpAbove, Threshold: 1, For: 1, Cooldown: 120},
		{Name: "cold-spike", Metric: alert.MetricColdRatePct, Op: alert.OpAbove, Threshold: 50, For: 3, Cooldown: 30},
		{Name: "savings-regression", Metric: alert.MetricSavingsVsFixedUSD, Op: alert.OpBelow, Threshold: 0, For: 5, Cooldown: 60},
	}

	replay := func(shards int) ([]alert.Notification, error) {
		acct, err := attribution.New(attribution.Config{Catalog: e.catalog, Assignment: e.asg, Cost: e.cost})
		if err != nil {
			return nil, err
		}
		sink := &alert.CollectorSink{}
		// Size the sink queue to the workload: a replay outpaces the
		// dispatcher, and a full queue drops notifications by design.
		engine, err := alert.NewEngine(alert.Config{
			Rules: rules, Sinks: []alert.Sink{sink}, Attribution: acct, QueueSize: 1 << 14,
		})
		if err != nil {
			return nil, err
		}
		p, err := core.New(core.Config{Catalog: e.catalog, Assignment: e.asg, Shards: shards})
		if err != nil {
			return nil, err
		}
		cfg := e.clusterConfig(false)
		cfg.Observer = telemetry.Multi(acct, engine)
		if _, err := cluster.Run(cfg, p); err != nil {
			return nil, err
		}
		engine.Flush() // the final minute never sees a successor rollup
		if err := engine.Close(); err != nil {
			return nil, err
		}
		return sink.Notifications(), nil
	}

	serial, err := replay(1)
	if err != nil {
		return AlertReplayPoint{}, err
	}
	sharded, err := replay(4)
	if err != nil {
		return AlertReplayPoint{}, err
	}

	pt := AlertReplayPoint{
		Rules:         len(rules),
		Transitions:   len(serial),
		Deterministic: reflect.DeepEqual(serial, sharded),
		Notifications: serial,
	}
	for _, n := range serial {
		if n.State == alert.StateFiring {
			pt.Firing++
		} else {
			pt.Resolved++
		}
	}
	if !pt.Deterministic {
		return pt, fmt.Errorf("experiments: alert replay diverged: serial produced %d transitions, 4-shard %d",
			len(serial), len(sharded))
	}
	if pt.Transitions == 0 {
		return pt, fmt.Errorf("experiments: alert replay produced no transitions; the rule set is vacuous on this trace")
	}

	const maxRows = 12
	t := report.NewTable("Extension — deterministic alert replay (serial == 4-shard controller)",
		"minute", "rule", "state", "value")
	for i, n := range pt.Notifications {
		if i >= maxRows {
			break
		}
		if err := t.AddRow(fmt.Sprintf("%d", n.Minute), n.Rule, n.State, report.F(n.Value)); err != nil {
			return pt, err
		}
	}
	if err := t.Render(e.opts.Out); err != nil {
		return pt, err
	}
	if pt.Transitions > maxRows {
		if err := fprintf(e.opts.Out, "(%d of %d transitions shown; %d firing, %d resolved over %d minutes)\n",
			maxRows, pt.Transitions, pt.Firing, pt.Resolved, e.opts.HorizonMinutes); err != nil {
			return pt, err
		}
	}
	return pt, nil
}
