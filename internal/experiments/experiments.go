// Package experiments reproduces every table and figure of the paper's
// evaluation (the per-experiment index in DESIGN.md §4). Each experiment is
// a function that runs the relevant policies on the shared synthetic trace,
// writes a textual rendition of the table/figure to the supplied writer,
// and returns the headline numbers so the benchmark suite and
// EXPERIMENTS.md generation can assert and record them.
package experiments

import (
	"fmt"
	"io"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// Options configures an experiment run. Zero values select defaults sized
// for quick runs; the cmd/experiments tool raises them to paper scale.
type Options struct {
	// Seed drives trace generation and assignment draws.
	Seed int64
	// HorizonMinutes is the trace length (default 3 days; the paper's
	// Azure slice is 14 days).
	HorizonMinutes int
	// Runs is the number of assignment-shuffled simulation runs for
	// multi-run experiments (default 30; the paper uses 1000).
	Runs int
	// Workers bounds experiment parallelism (0 = GOMAXPROCS).
	Workers int
	// Out receives the rendered table/figure. nil discards output.
	Out io.Writer
	// Archetypes overrides the default Azure-like function mix (advanced;
	// the prior-KaM ablation uses a sparse mix where platform-wide
	// inactivity actually occurs).
	Archetypes []trace.Archetype
	// Observer, when non-nil, audits experiment runs through the same
	// telemetry surface the live runtime uses (must be concurrency-safe;
	// multi-run experiments share it across workers).
	Observer telemetry.Observer
}

func (o Options) withDefaults() Options {
	if o.HorizonMinutes <= 0 {
		o.HorizonMinutes = 3 * trace.MinutesPerDay
	}
	if o.Runs <= 0 {
		o.Runs = 30
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// env bundles the shared experimental setup: the trace, catalog, and a
// fixed round-robin assignment (single-run experiments use it; multi-run
// experiments shuffle assignments per run).
type env struct {
	opts    Options
	trace   *trace.Trace
	catalog *models.Catalog
	asg     models.Assignment
	cost    cluster.CostModel
}

func newEnv(opts Options) (*env, error) {
	opts = opts.withDefaults()
	tr, err := trace.Generate(trace.GeneratorConfig{
		Seed:       opts.Seed,
		Horizon:    opts.HorizonMinutes,
		Archetypes: opts.Archetypes,
	})
	if err != nil {
		return nil, err
	}
	cat := models.PaperCatalog()
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	return &env{opts: opts, trace: tr, catalog: cat, asg: asg, cost: cluster.DefaultCostModel()}, nil
}

func (e *env) clusterConfig(measure bool) cluster.Config {
	return cluster.Config{
		Trace:           e.trace,
		Catalog:         e.catalog,
		Assignment:      e.asg,
		Cost:            e.cost,
		MeasureOverhead: measure,
		Observer:        e.opts.Observer,
	}
}

// run executes one policy over the whole environment trace.
func (e *env) run(p cluster.Policy, measure bool) (*cluster.Result, error) {
	return cluster.Run(e.clusterConfig(measure), p)
}

// newPulse builds a PULSE instance on the environment's assignment.
func (e *env) newPulse(cfg core.Config) (*core.Pulse, error) {
	cfg.Catalog = e.catalog
	cfg.Assignment = e.asg
	return core.New(cfg)
}

// newOpenWhisk builds the fixed all-high baseline.
func (e *env) newOpenWhisk() (cluster.Policy, error) {
	return policy.NewFixed(e.catalog, e.asg, cluster.DefaultKeepAliveWindow, policy.QualityHighest)
}

func fprintf(w io.Writer, format string, args ...any) error {
	_, err := fmt.Fprintf(w, format, args...)
	return err
}
