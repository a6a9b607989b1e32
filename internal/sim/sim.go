// Package sim is the experiment harness: it reproduces the paper's
// simulation methodology of many runs over the same trace, "each presenting
// a unique combination of model-to-function assignments", evaluating every
// policy on the same per-run assignment (paired comparison) and aggregating
// the three metrics — service time, keep-alive cost, accuracy — plus the
// per-decision overhead distribution Figure 9 reports.
//
// Runs fan out over a worker pool; each run derives its own RNG from the
// master seed, so results are bit-identical regardless of worker count.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// NamedFactory constructs a fresh policy instance for one run. Policies are
// stateful, so every run needs its own instance.
type NamedFactory struct {
	Name string
	New  func(run int, asg models.Assignment) (cluster.Policy, error)
}

// ExperimentConfig assembles a multi-run experiment.
type ExperimentConfig struct {
	Trace   *trace.Trace
	Catalog *models.Catalog
	Cost    cluster.CostModel
	// Runs is the number of simulation runs (the paper uses 1000).
	Runs int
	// Seed derives each run's model-to-function assignment.
	Seed int64
	// Workers bounds the worker pool; ≤ 0 uses GOMAXPROCS.
	Workers int
	// MeasureOverhead times policy calls (Figure 9).
	MeasureOverhead bool
	// Observer, when non-nil, receives instrumentation samples from every
	// run. Implementations must be concurrency-safe: runs execute on a
	// worker pool and share the one observer.
	Observer telemetry.Observer
	// Attribution attaches a fresh counterfactual accountant — the same
	// attribution.Accountant pulsed serves live — to every run, and
	// aggregates each policy's savings versus the shadow baselines.
	Attribution bool
}

func (c *ExperimentConfig) validate() error {
	if c.Trace == nil {
		return fmt.Errorf("sim: nil trace")
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	if c.Catalog == nil {
		return fmt.Errorf("sim: nil catalog")
	}
	if err := c.Catalog.Validate(); err != nil {
		return err
	}
	if c.Runs <= 0 {
		return fmt.Errorf("sim: non-positive run count %d", c.Runs)
	}
	if c.Cost.USDPerGBSecond <= 0 {
		return fmt.Errorf("sim: non-positive cost rate")
	}
	return nil
}

// runSummary is the scalar digest of one policy's run (per-minute series
// are dropped to keep thousand-run experiments in memory).
type runSummary struct {
	serviceSec    float64
	costUSD       float64
	accuracyPct   float64
	warmRate      float64
	coldStarts    int
	overheadSec   float64
	overheadRatio float64
	peakKaMMB     float64

	// Attribution digests (zero unless ExperimentConfig.Attribution).
	savingsVsFixedUSD  float64
	savingsVsNeverUSD  float64
	oracleGapUSD       float64 // actual − oracle cost (the price of not knowing the future)
	coldAvoidedVsFixed int
}

func summarize(r *cluster.Result) runSummary {
	peak := 0.0
	for _, v := range r.PerMinuteKaMMB {
		if v > peak {
			peak = v
		}
	}
	return runSummary{
		serviceSec:    r.TotalServiceSec,
		costUSD:       r.KeepAliveCostUSD,
		accuracyPct:   r.MeanAccuracyPct(),
		warmRate:      r.WarmStartRate(),
		coldStarts:    r.ColdStarts,
		overheadSec:   r.PolicyOverheadSec,
		overheadRatio: r.OverheadPerServiceTime(),
		peakKaMMB:     peak,
	}
}

// Aggregate is the across-runs summary of one policy.
type Aggregate struct {
	Policy string
	Runs   int

	MeanServiceSec  float64
	StdServiceSec   float64
	MeanCostUSD     float64
	StdCostUSD      float64
	MeanAccuracyPct float64
	StdAccuracyPct  float64
	MeanWarmRate    float64
	MeanColdStarts  float64
	MeanPeakKaMMB   float64
	MeanOverheadSec float64

	// Attribution means (populated when ExperimentConfig.Attribution): net
	// keep-alive savings versus the shadow baselines and the cold starts
	// the live policy avoided relative to the fixed baseline.
	MeanSavingsVsFixedUSD  float64
	MeanSavingsVsNeverUSD  float64
	MeanOracleGapUSD       float64
	MeanColdAvoidedVsFixed float64

	// OverheadRatios holds each run's decision-overhead/service-time ratio
	// — the x-axis samples of Figure 9(a).
	OverheadRatios []float64
}

func aggregate(name string, rows []runSummary) *Aggregate {
	a := &Aggregate{Policy: name, Runs: len(rows)}
	if len(rows) == 0 {
		return a
	}
	var sSvc, sCost, sAcc, sWarm, sCold, sPeak, sOvh float64
	var sFix, sNever, sOracle, sColdAv float64
	for _, r := range rows {
		sSvc += r.serviceSec
		sCost += r.costUSD
		sAcc += r.accuracyPct
		sWarm += r.warmRate
		sCold += float64(r.coldStarts)
		sPeak += r.peakKaMMB
		sOvh += r.overheadSec
		sFix += r.savingsVsFixedUSD
		sNever += r.savingsVsNeverUSD
		sOracle += r.oracleGapUSD
		sColdAv += float64(r.coldAvoidedVsFixed)
		a.OverheadRatios = append(a.OverheadRatios, r.overheadRatio)
	}
	n := float64(len(rows))
	a.MeanServiceSec = sSvc / n
	a.MeanCostUSD = sCost / n
	a.MeanAccuracyPct = sAcc / n
	a.MeanWarmRate = sWarm / n
	a.MeanColdStarts = sCold / n
	a.MeanPeakKaMMB = sPeak / n
	a.MeanOverheadSec = sOvh / n
	a.MeanSavingsVsFixedUSD = sFix / n
	a.MeanSavingsVsNeverUSD = sNever / n
	a.MeanOracleGapUSD = sOracle / n
	a.MeanColdAvoidedVsFixed = sColdAv / n
	var vSvc, vCost, vAcc float64
	for _, r := range rows {
		vSvc += (r.serviceSec - a.MeanServiceSec) * (r.serviceSec - a.MeanServiceSec)
		vCost += (r.costUSD - a.MeanCostUSD) * (r.costUSD - a.MeanCostUSD)
		vAcc += (r.accuracyPct - a.MeanAccuracyPct) * (r.accuracyPct - a.MeanAccuracyPct)
	}
	a.StdServiceSec = math.Sqrt(vSvc / n)
	a.StdCostUSD = math.Sqrt(vCost / n)
	a.StdAccuracyPct = math.Sqrt(vAcc / n)
	return a
}

// RunExperiment executes cfg.Runs paired simulations: each run draws one
// model-to-function assignment and evaluates every factory's policy on it.
// Aggregates are returned in factory order.
func RunExperiment(cfg ExperimentConfig, factories []NamedFactory) ([]*Aggregate, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(factories) == 0 {
		return nil, fmt.Errorf("sim: no policies")
	}
	names := map[string]bool{}
	for _, f := range factories {
		if f.Name == "" || f.New == nil {
			return nil, fmt.Errorf("sim: factory with empty name or nil constructor")
		}
		if names[f.Name] {
			return nil, fmt.Errorf("sim: duplicate policy name %q", f.Name)
		}
		names[f.Name] = true
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Runs {
		workers = cfg.Runs
	}

	nFn := len(cfg.Trace.Functions)
	rows := make([][]runSummary, len(factories))
	for i := range rows {
		rows[i] = make([]runSummary, cfg.Runs)
	}
	jobs := make(chan int)
	errCh := make(chan error, workers) // each worker reports at most one error
	abort := make(chan struct{})       // closed on the first error so dispatch stops
	var abortOnce sync.Once
	fail := func(err error) {
		errCh <- err
		abortOnce.Do(func() { close(abort) })
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range jobs {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(run)*7_919))
				asg := models.RandomAssignment(rng, cfg.Catalog, nFn)
				for fi, f := range factories {
					p, err := f.New(run, asg)
					if err != nil {
						fail(fmt.Errorf("sim: run %d policy %q: %w", run, f.Name, err))
						return
					}
					// With Attribution, a fresh run-scoped accountant rides
					// the same observer seam pulsed uses live, so offline
					// and online savings agree by construction.
					obs := cfg.Observer
					var acct *attribution.Accountant
					if cfg.Attribution {
						acct, err = attribution.New(attribution.Config{
							Catalog:    cfg.Catalog,
							Assignment: asg,
							Cost:       cfg.Cost,
						})
						if err != nil {
							fail(fmt.Errorf("sim: run %d policy %q: %w", run, f.Name, err))
							return
						}
						obs = telemetry.Multi(cfg.Observer, acct)
					}
					res, err := cluster.Run(cluster.Config{
						Trace:           cfg.Trace,
						Catalog:         cfg.Catalog,
						Assignment:      asg,
						Cost:            cfg.Cost,
						MeasureOverhead: cfg.MeasureOverhead,
						Observer:        obs,
					}, p)
					if err != nil {
						fail(fmt.Errorf("sim: run %d policy %q: %w", run, f.Name, err))
						return
					}
					row := summarize(res)
					if acct != nil {
						rep := acct.Report()
						row.savingsVsFixedUSD = rep.Total.VsFixed.KeepAliveCostUSD
						row.savingsVsNeverUSD = rep.Total.VsNever.KeepAliveCostUSD
						row.oracleGapUSD = -rep.Total.VsOracle.KeepAliveCostUSD
						row.coldAvoidedVsFixed = rep.Total.VsFixed.ColdStartsAvoided
					}
					rows[fi][run] = row
				}
			}
		}()
	}
dispatch:
	for run := 0; run < cfg.Runs; run++ {
		select {
		case jobs <- run:
		case <-abort:
			break dispatch // a worker died; stop feeding work
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	out := make([]*Aggregate, len(factories))
	for fi, f := range factories {
		out[fi] = aggregate(f.Name, rows[fi])
		sort.Float64s(out[fi].OverheadRatios)
	}
	return out, nil
}

// Improvement summarizes one policy's relative change versus a baseline in
// the paper's reporting convention: positive is better for all three
// metrics (cost and service time are reductions, accuracy is a gain).
type Improvement struct {
	Policy         string
	Baseline       string
	CostPct        float64 // % keep-alive cost reduction vs baseline
	ServiceTimePct float64 // % service time reduction vs baseline
	AccuracyPct    float64 // % relative accuracy change vs baseline
}

// ImprovementOver computes the Figure 6(a)/8/10/11/12 y-axis values.
func ImprovementOver(baseline, x *Aggregate) (Improvement, error) {
	if baseline == nil || x == nil {
		return Improvement{}, fmt.Errorf("sim: nil aggregate")
	}
	if baseline.MeanCostUSD == 0 || baseline.MeanServiceSec == 0 || baseline.MeanAccuracyPct == 0 {
		return Improvement{}, fmt.Errorf("sim: degenerate baseline %q", baseline.Policy)
	}
	return Improvement{
		Policy:         x.Policy,
		Baseline:       baseline.Policy,
		CostPct:        (baseline.MeanCostUSD - x.MeanCostUSD) / baseline.MeanCostUSD * 100,
		ServiceTimePct: (baseline.MeanServiceSec - x.MeanServiceSec) / baseline.MeanServiceSec * 100,
		AccuracyPct:    (x.MeanAccuracyPct - baseline.MeanAccuracyPct) / baseline.MeanAccuracyPct * 100,
	}, nil
}
