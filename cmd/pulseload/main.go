// Command pulseload is the live-runtime load benchmark matrix: it sweeps
// GOMAXPROCS × functions × mixes × workers × serving modes (the serial
// oracle and epoch), builds a fresh in-process PULSE-managed runtime per
// cell, hammers it with concurrent closed-loop callers and a background
// minute stepper, and reports throughput and Invoke latency percentiles for
// every cell.
//
//	pulseload -gomaxprocs 1,4 -functions 12,96 -mixes hotspot,zipf -duration 2s -out BENCH_runtime.json
//
// The JSON output (see README "Load benchmark" for the field reference)
// carries every cell's LoadResult plus a per-shape summary with the
// epoch/serial throughput ratio — the scaling curve CI tracks as the
// serving-path perf trajectory. The epoch mode's advantage needs
// parallelism and contention: expect parity at GOMAXPROCS 1 and a growing
// lead on the hotspot mix from GOMAXPROCS 4 up.
//
// With -scale, a population-scale sweep follows (or replaces, with
// -scale-only, for the CI bench-scale job) the matrix: per population it
// reports resting heap bytes per function and idle/active minute-step
// latency into the output's scale section, optionally gated by the
// -scale-max-bytes-per-fn and -scale-max-idle-step-ms budgets:
//
//	pulseload -scale-only -scale 10000,100000,1000000 -scale-active-pct 1
//
// Every scale cell runs twice: bare (scale), and with pulsed's default
// observer chain — telemetry + provenance — attached (scale_observed), the
// configuration an operator actually runs. When budgets are on, the observed
// cell is held to its own fixed ones (observedMaxIdleStepMs,
// observedMaxBytesPerFn).
//
// After the matrix, a tracer-delta pair benchmarks epoch mode with the
// sampled invocation tracer off vs on at -trace-stride (default 1024,
// 0 skips the measurement) and publishes the throughput overhead into the
// output's tracer_delta field. The guard is <2% overhead at stride 1024;
// a breach is reported as a warning, not a failure, because single cells
// at short durations are noisy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/runtime"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// benchFile is the BENCH_runtime.json schema: raw per-cell results plus the
// grouped per-shape mode comparison.
type benchFile struct {
	Bench    string `json:"bench"`
	Policy   string `json:"policy"`
	HostCPUs int    `json:"host_cpus"`
	// HostNote annotates how the host shapes the numbers (set on 1-CPU
	// hosts, where the mode speedup ratios reflect serialized parallelism).
	HostNote string                `json:"host_note,omitempty"`
	Results  []runtime.LoadResult  `json:"results,omitempty"`
	Summary  []runtime.MatrixPoint `json:"summary,omitempty"`
	// TracerDelta is the tracer-on vs tracer-off epoch throughput
	// comparison; absent when -trace-stride is 0.
	TracerDelta *runtime.TracerDelta `json:"tracer_delta,omitempty"`
	// Scale is the population-scale sweep (bytes per function and
	// idle/active minute-step latency); absent when -scale is empty.
	// ScaleObserved is the same sweep with pulsed's default observer chain
	// (telemetry + provenance) attached.
	Scale         []runtime.ScaleResult `json:"scale,omitempty"`
	ScaleObserved []runtime.ScaleResult `json:"scale_observed,omitempty"`
}

// Budgets for the observed scale cell, enforced whenever the bare cell's
// corresponding budget flag is set. The idle step is the sparse Observer
// contract's promise: with the chain attached an idle minute still touches
// no per-function state. Bytes per function is 1.25× the 100k cell measured
// when the observers' state became slot-indexed (760 B: 564 B runtime +
// controller arenas, the rest the provenance recorder's per-identity entry
// and name index; telemetry holds nothing for a function no sample names).
const (
	observedMaxIdleStepMs = 1.0
	observedMaxBytesPerFn = 950.0
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pulseload:", err)
		os.Exit(1)
	}
}

// intList parses a comma-separated list of integers.
func intList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad entry %q", flagName, part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty list", flagName)
	}
	return out, nil
}

func strList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run() error {
	gomaxprocs := flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS sweep (default: current value)")
	functions := flag.String("functions", "12", "comma-separated registered-function counts")
	workers := flag.String("workers", "0", "comma-separated worker counts (0 = 2×GOMAXPROCS per cell)")
	duration := flag.Duration("duration", 2*time.Second, "wall-clock run length per cell")
	mixes := flag.String("mixes", runtime.MixHotspot, "comma-separated arrival mixes: uniform, zipf, hotspot")
	policyName := flag.String("policy", "pulse", "keep-alive policy: pulse or fixed")
	shards := flag.Int("shards", 0, "PULSE controller shards (0 = one per CPU)")
	seed := flag.Int64("seed", 1, "worker RNG seed")
	stepEvery := flag.Duration("step-every", 100*time.Millisecond, "minute-barrier cadence (0 disables stepping)")
	traceStride := flag.Int64("trace-stride", runtime.DefaultTracerDeltaStride,
		"sampling period for the tracer-overhead pair after the matrix (0 skips it)")
	modes := flag.String("modes", runtime.ModeSerial+","+runtime.ModeEpoch,
		"comma-separated runtime modes to benchmark")
	scale := flag.String("scale", "", "comma-separated populations for the scale sweep (empty skips it)")
	scaleActivePct := flag.Float64("scale-active-pct", runtime.DefaultScaleActivePct,
		"percentage of the population invoked per active scale minute")
	scaleMinutes := flag.Int("scale-minutes", runtime.DefaultScaleMinutes, "timed minute steps per scale phase")
	scaleOnly := flag.Bool("scale-only", false, "run only the scale sweep, skipping the serving matrix")
	scaleMaxBytes := flag.Float64("scale-max-bytes-per-fn", 0,
		"fail if any scale cell exceeds this many resting heap bytes per function (0 disables)")
	scaleMaxIdleMs := flag.Float64("scale-max-idle-step-ms", 0,
		"fail if any scale cell's mean idle minute step exceeds this many milliseconds (0 disables)")
	out := flag.String("out", "BENCH_runtime.json", "output file ('-' for stdout only)")
	flag.Parse()

	fnCounts, err := intList("functions", *functions)
	if err != nil {
		return err
	}
	for _, n := range fnCounts {
		if n <= 0 {
			return fmt.Errorf("-functions entries must be positive (got %d)", n)
		}
	}
	workerCounts, err := intList("workers", *workers)
	if err != nil {
		return err
	}
	for _, w := range workerCounts {
		if w < 0 {
			return fmt.Errorf("-workers entries must be non-negative (got %d; 0 means 2×GOMAXPROCS)", w)
		}
	}
	var gmps []int
	if *gomaxprocs != "" {
		if gmps, err = intList("gomaxprocs", *gomaxprocs); err != nil {
			return err
		}
		for _, g := range gmps {
			if g <= 0 {
				return fmt.Errorf("-gomaxprocs entries must be positive (got %d)", g)
			}
		}
	}
	var scalePops []int
	if *scale != "" {
		if scalePops, err = intList("scale", *scale); err != nil {
			return err
		}
		for _, n := range scalePops {
			if n <= 0 {
				return fmt.Errorf("-scale entries must be positive (got %d)", n)
			}
		}
	}
	if *scaleOnly && len(scalePops) == 0 {
		return fmt.Errorf("-scale-only requires a -scale population list")
	}

	cat := pulse.Catalog()
	// Each cell gets a fresh policy: runs must not share state. obs, when
	// non-nil, observes both the controller and the runtime, like pulsed.
	buildRuntime := func(fns int, mode string, tracer *provenance.Tracer, obs telemetry.Observer) (*runtime.Runtime, error) {
		asg := pulse.UniformAssignment(cat, fns)
		var p pulse.Policy
		var err error
		switch *policyName {
		case "pulse":
			p, err = core.New(core.Config{Catalog: cat, Assignment: asg, Shards: *shards, Observer: obs})
		case "fixed":
			p, err = policy.NewFixed(cat, asg, 0, policy.QualityHighest)
		default:
			err = fmt.Errorf("unknown policy %q (want pulse or fixed)", *policyName)
		}
		if err != nil {
			return nil, err
		}
		return runtime.New(runtime.Config{
			Catalog:    cat,
			Assignment: asg,
			Policy:     p,
			Mode:       mode,
			Tracer:     tracer,
			Observer:   obs,
		})
	}
	// newObservedRuntime attaches pulsed's default observer chain.
	newObservedRuntime := func(fns int) (*runtime.Runtime, error) {
		tel, err := telemetry.New(telemetry.Config{})
		if err != nil {
			return nil, err
		}
		prov, err := provenance.NewRecorder(provenance.RecorderConfig{
			Catalog: cat, Assignment: pulse.UniformAssignment(cat, fns), Names: identity.DefaultNames(fns),
		})
		if err != nil {
			return nil, err
		}
		return buildRuntime(fns, runtime.ModeEpoch, nil, telemetry.Multi(tel, prov))
	}
	file := benchFile{
		Bench:    "runtime-serving-matrix",
		Policy:   *policyName,
		HostCPUs: goruntime.NumCPU(),
	}
	scaleSweep := func() error {
		cfg := runtime.ScaleConfig{Populations: scalePops, ActivePct: *scaleActivePct, Minutes: *scaleMinutes}
		var err error
		cfg.NewRuntime = func(fns int) (*runtime.Runtime, error) {
			return buildRuntime(fns, runtime.ModeEpoch, nil, nil)
		}
		if file.Scale, err = runScaleSweep("scale", cfg, *scaleMaxBytes, *scaleMaxIdleMs); err != nil {
			return err
		}
		var maxBytes, maxIdleMs float64
		if *scaleMaxBytes > 0 {
			maxBytes = observedMaxBytesPerFn
		}
		if *scaleMaxIdleMs > 0 {
			maxIdleMs = observedMaxIdleStepMs
		}
		cfg.NewRuntime = newObservedRuntime
		file.ScaleObserved, err = runScaleSweep("scale+chain", cfg, maxBytes, maxIdleMs)
		return err
	}

	if file.HostCPUs == 1 {
		file.HostNote = "measured on a 1-CPU host: mode speedup ratios reflect serialized parallelism, and scale latencies have no background-GC overlap"
	}
	if *scaleOnly {
		file.Bench = "runtime-scale"
		if err := scaleSweep(); err != nil {
			return err
		}
		return writeBenchFile(file, *out)
	}

	var failed int64
	results, err := runtime.RunMatrix(runtime.MatrixConfig{
		GOMAXPROCS: gmps,
		Functions:  fnCounts,
		Mixes:      strList(*mixes),
		Workers:    workerCounts,
		Modes:      strList(*modes),
		Duration:   *duration,
		Seed:       *seed,
		StepEvery:  *stepEvery,
		NewRuntime: func(fns int, mode string) (*runtime.Runtime, error) {
			return buildRuntime(fns, mode, nil, nil)
		},
		Progress: func(res runtime.LoadResult) {
			failed += res.Errors
			fmt.Printf("gmp %-2d fns %-4d %-8s %-8s %9.0f inv/s  (%d invocations, %d workers, %d minutes, p50 %.1fµs p99 %.1fµs)\n",
				res.GOMAXPROCS, res.Functions, res.Mix, res.Mode, res.Throughput,
				res.Invocations, res.Workers, res.MinutesStepped, res.LatencyP50us, res.LatencyP99us)
		},
	})
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d failed invocations across the matrix", failed)
	}
	file.Results = results
	file.Summary = runtime.SummarizeMatrix(results)

	if *traceStride > 0 {
		delta, err := runtime.RunTracerDelta(runtime.TracerDeltaConfig{
			Functions: fnCounts[0],
			Duration:  *duration,
			Seed:      *seed,
			StepEvery: *stepEvery,
			Stride:    *traceStride,
			NewRuntime: func(fns int, tracer *provenance.Tracer) (*runtime.Runtime, error) {
				return buildRuntime(fns, runtime.ModeEpoch, tracer, nil)
			},
		})
		if err != nil {
			return err
		}
		file.TracerDelta = &delta
		verdict := fmt.Sprintf("within <%.0f%% guard", delta.GuardPct)
		if !delta.WithinGuard {
			verdict = fmt.Sprintf("WARNING: exceeds %.0f%% guard", delta.GuardPct)
		}
		fmt.Printf("tracer 1/%d on %s: off %9.0f inv/s  on %9.0f inv/s  overhead %+.2f%%  (%d sampled of %d) %s\n",
			delta.Stride, delta.Mode, delta.OffThroughput, delta.OnThroughput,
			delta.OverheadPct, delta.Sampled, delta.Attempts, verdict)
	}
	for _, p := range file.Summary {
		if p.SpeedupEpochVsSerial > 0 {
			fmt.Printf("gmp %-2d fns %-4d %-8s epoch/serial %.2f×\n", p.GOMAXPROCS, p.Functions, p.Mix, p.SpeedupEpochVsSerial)
		}
	}

	if len(scalePops) > 0 {
		if err := scaleSweep(); err != nil {
			return err
		}
	}
	return writeBenchFile(file, *out)
}

// runScaleSweep runs one population-scale sweep and applies the optional
// per-cell budgets: resting bytes per function and mean idle minute-step
// latency. A budget breach is a hard error — this is what the CI bench-scale
// job gates on.
func runScaleSweep(label string, cfg runtime.ScaleConfig, maxBytesPerFn, maxIdleStepMs float64) ([]runtime.ScaleResult, error) {
	cfg.Progress = func(res runtime.ScaleResult) {
		fmt.Printf("%-11s %-8d %-8s build %6.2fs  %7.0f B/fn  idle step %9.1fµs  active step %9.1fµs (%d slots)\n",
			label, res.Functions, res.Mode, res.BuildSeconds, res.BytesPerFunction,
			res.IdleStepMicros, res.ActiveStepMicros, res.ActiveFunctions)
	}
	results, err := runtime.RunScale(cfg)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if maxBytesPerFn > 0 && res.BytesPerFunction > maxBytesPerFn {
			return nil, fmt.Errorf("%s budget breach at %d functions: %.0f bytes/function exceeds budget %.0f",
				label, res.Functions, res.BytesPerFunction, maxBytesPerFn)
		}
		if maxIdleStepMs > 0 && res.IdleStepMicros > maxIdleStepMs*1000 {
			return nil, fmt.Errorf("%s budget breach at %d functions: idle step %.1fµs exceeds budget %.1fms",
				label, res.Functions, res.IdleStepMicros, maxIdleStepMs)
		}
	}
	return results, nil
}

func writeBenchFile(file benchFile, out string) error {
	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
