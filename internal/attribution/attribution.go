// Package attribution answers, online, the question the paper answers
// offline: how much is PULSE saving right now, and for which functions?
//
// An Accountant is a telemetry.Observer that watches the same sample
// stream the metrics pipeline sees — keep-alive decisions, invocations,
// minute rollups — and runs lightweight *shadow policies* in-stream
// against the identical invocation feed. Three baselines are always
// raced:
//
//   - fixed-high: the OpenWhisk/AWS-style fixed keep-alive of the
//     highest-quality variant for Config.Window minutes after every
//     invocation — the paper's competing baseline;
//   - never: no keep-alive at all — every invoked minute opens with a
//     cold start on the highest-quality variant;
//   - oracle: the paper's "ideal" reference (Figure 6b) — a container of
//     the highest-quality variant is alive exactly during the minutes the
//     function is invoked, so every invocation is warm and no idle minute
//     is ever paid for.
//
// Since the tournament refactor the Accountant is a thin adapter over a
// tournament.Arena: the three baselines are tournament.ShadowEntrant
// implementations (entrants 0..2), and Config.Entrants appends further
// contenders — MPC, Hawkes, Q-learning, or anything satisfying the
// interface — raced by the same referee with per-entrant per-function
// ledgers. The shadows never run containers; they are pure accounting
// derived from the observed invocation counts, with semantics matched
// line-for-line to the cluster engine's (an invocation at minute m keeps
// the fixed baseline's container alive through minute m+window; the first
// cold invocation of a minute pays the cold start and leaves the
// container warm for the rest of the minute). Per function and
// cluster-wide, the Accountant tracks keep-alive MB-minutes, cold starts,
// delivered accuracy (both invocation-weighted and variant-minutes
// weighted), and the net savings of the live policy versus each baseline,
// plus a fixed-capacity windowed time-series of per-minute aggregates.
//
// Determinism: the Accountant's state is a pure function of the sample
// stream. Attribution therefore stays on the coordinator — the sharded
// controller stages its events in per-shard telemetry.Buffers and flushes
// them at the minute barrier in shard order, and the cluster engine falls
// back to its serial scan whenever an Observer is attached — so reports
// are bit-identical at every shard count, and a simulated run and a live
// runtime fed the same trace produce identical numbers by construction.
// All hot-path state is preallocated: once constructed, observing a minute
// allocates nothing.
package attribution

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
)

// Baseline names as they appear in reports. Every Accountant's arena
// carries these as entrants 0, 1, and 2; Config.Entrants follow.
const (
	BaselineFixedHigh = "fixed-high"
	BaselineNever     = "never"
	BaselineOracle    = "oracle"
)

// Config parameterizes an Accountant.
type Config struct {
	Catalog    *models.Catalog
	Assignment models.Assignment
	// Cost prices keep-alive memory for the live policy and every shadow;
	// the zero value selects the AWS-calibrated default.
	Cost cluster.CostModel
	// Window is the fixed-high shadow's keep-alive period in minutes
	// (default cluster.DefaultKeepAliveWindow).
	Window int
	// SeriesWindow is how many minutes the time-series store retains at
	// minute resolution (default DefaultSeriesWindow). The hourly rollup
	// ring holds the same number of buckets, extending the horizon 60×.
	SeriesWindow int
	// Entrants are additional tournament contenders raced alongside the
	// three baselines (see tournament.Roster for the packaged ones). Names
	// must be unique and must not collide with the baseline names.
	Entrants []tournament.ShadowEntrant
}

// Accountant is the online counterfactual attribution engine. It
// implements telemetry.Observer; attach one instance to both the
// controller (core.Config.Observer) and the platform (cluster.Config /
// runtime.Config Observer), alongside any other observer via
// telemetry.Multi.
type Accountant struct {
	arena  *tournament.Arena
	window int
}

// New builds an Accountant. The catalog and assignment must match the ones
// driving the policy under observation.
func New(cfg Config) (*Accountant, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("attribution: nil catalog")
	}
	if err := cfg.Catalog.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assignment.Validate(cfg.Catalog, len(cfg.Assignment)); err != nil {
		return nil, err
	}
	if len(cfg.Assignment) == 0 {
		return nil, fmt.Errorf("attribution: empty assignment")
	}
	if cfg.Cost.USDPerGBSecond == 0 {
		cfg.Cost = cluster.DefaultCostModel()
	}
	if cfg.Cost.USDPerGBSecond < 0 {
		return nil, fmt.Errorf("attribution: negative cost rate %v", cfg.Cost.USDPerGBSecond)
	}
	if cfg.Window <= 0 {
		cfg.Window = cluster.DefaultKeepAliveWindow
	}
	entrants := make([]tournament.ShadowEntrant, 0, 3+len(cfg.Entrants))
	entrants = append(entrants,
		tournament.NewFixedWindow(BaselineFixedHigh, cfg.Window),
		tournament.NewNever(BaselineNever),
		tournament.NewOracle(BaselineOracle),
	)
	entrants = append(entrants, cfg.Entrants...)
	arena, err := tournament.New(tournament.Config{
		Catalog:      cfg.Catalog,
		Assignment:   cfg.Assignment,
		Cost:         cfg.Cost,
		SeriesWindow: cfg.SeriesWindow,
		Entrants:     entrants,
	})
	if err != nil {
		return nil, err
	}
	return &Accountant{arena: arena, window: cfg.Window}, nil
}

// Window returns the fixed-high shadow's keep-alive window in minutes.
func (a *Accountant) Window() int { return a.window }

// Arena exposes the underlying tournament arena: per-entrant snapshots,
// entrant-selected time-series, and the memory-retention probes live
// there.
func (a *Accountant) Arena() *tournament.Arena { return a.arena }

// EntrantNames lists every raced policy in report order: the three
// baselines, then Config.Entrants.
func (a *Accountant) EntrantNames() []string { return a.arena.EntrantNames() }

// MetricAt returns one cluster-wide metric's value at a single minute:
// the stored value for a closed minute still inside the series window, or
// the live accumulators when the minute is the currently open one — what
// the store would receive if the minute ended now. The open-minute path is
// what lets an alert engine flushing its final minute price it without
// waiting for a rollup that will never come. Reports false for minutes
// never seen or already evicted from the ring.
func (a *Accountant) MetricAt(metric Metric, minute int) (float64, bool) {
	sel, ok := metricSelector(metric)
	if !ok {
		return 0, false
	}
	return a.arena.ValueAt(sel, minute)
}

// Series returns the trailing time-series for one metric, oldest point
// first: the last window minutes at minute resolution, or — with hourly
// set — the last window hours from the rollup ring (gauges averaged,
// amounts summed; Point.Minute is the hour's first minute). The open
// minute is not included; it is still accumulating.
func (a *Accountant) Series(metric Metric, window int, hourly bool) []Point {
	sel, ok := metricSelector(metric)
	if !ok {
		return nil
	}
	return a.arena.Series(sel, window, hourly)
}

// ObserveKeepAlive implements telemetry.Observer: the live policy's
// keep-alive decision for one function-minute.
func (a *Accountant) ObserveKeepAlive(s telemetry.KeepAliveSample) { a.arena.ObserveKeepAlive(s) }

// ObserveInvocation implements telemetry.Observer: one batch of served
// invocations.
func (a *Accountant) ObserveInvocation(s telemetry.InvocationSample) { a.arena.ObserveInvocation(s) }

// ObserveMinute implements telemetry.Observer. The rollup's payload is
// recomputed internally (so simulated and live feeds, which price the
// minute in different float orders, cannot diverge); the sample only
// advances the clock.
func (a *Accountant) ObserveMinute(s telemetry.MinuteSample) { a.arena.ObserveMinute(s) }

// ObserveSchedule implements telemetry.Observer (ignored: plans are
// intent, not cost).
func (a *Accountant) ObserveSchedule(telemetry.ScheduleSample) {}

// ObservePeak implements telemetry.Observer (ignored: peak episodes are
// visible through the downgrade counts they cause).
func (a *Accountant) ObservePeak(telemetry.PeakSample) {}

// ObserveDowngrade implements telemetry.Observer: counts Algorithm 2
// downgrades per function, the /top "downgrades" ranking.
func (a *Accountant) ObserveDowngrade(s telemetry.DowngradeSample) { a.arena.ObserveDowngrade(s) }

// ObserveRegister implements telemetry.LifecycleObserver: a new function
// slot opens a fresh ledger in every account.
func (a *Accountant) ObserveRegister(s telemetry.RegisterSample) { a.arena.ObserveRegister(s) }

// ObserveDeregister implements telemetry.LifecycleObserver: the slot's
// ledgers are priced once into fixed-size totals and released.
func (a *Accountant) ObserveDeregister(s telemetry.DeregisterSample) { a.arena.ObserveDeregister(s) }

var (
	_ telemetry.Observer          = (*Accountant)(nil)
	_ telemetry.LifecycleObserver = (*Accountant)(nil)
)
