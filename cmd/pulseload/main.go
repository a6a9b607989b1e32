// Command pulseload is the population-scale gate: per population it builds a
// PULSE-managed runtime in process and reports resting heap bytes per
// function and idle/active minute-step latency, optionally failing on the
// -scale-max-bytes-per-fn and -scale-max-idle-step-ms budgets:
//
//	pulseload -scale 10000,100000,1000000 -out BENCH_scale.json
//
// Every population runs twice: bare (scale), and with pulsed's default
// observer chain — telemetry + provenance — attached (scale_observed), the
// configuration an operator actually runs. When budgets are on, the observed
// cell is held to its own fixed ones (observedMaxIdleStepMs,
// observedMaxBytesPerFn).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/runtime"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// benchFile is the BENCH_scale.json schema: the bare and the observed sweep.
type benchFile struct {
	Bench    string `json:"bench"`
	HostCPUs int    `json:"host_cpus"`
	// HostNote annotates how the host shapes the numbers (set on 1-CPU
	// hosts).
	HostNote      string                `json:"host_note,omitempty"`
	Scale         []runtime.ScaleResult `json:"scale"`
	ScaleObserved []runtime.ScaleResult `json:"scale_observed"`
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

// intList parses a comma-separated list of integers; RunScale rejects
// non-positive populations.
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
	return out, nil
}

func run() error {
	scale := flag.String("scale", "", fmt.Sprintf("comma-separated populations to sweep (empty: %v)", runtime.DefaultScalePopulations))
	scaleMaxBytes := flag.Float64("scale-max-bytes-per-fn", 0,
		"fail if any bare cell exceeds this many resting heap bytes per function (0 disables)")
	scaleMaxIdleMs := flag.Float64("scale-max-idle-step-ms", 0,
		"fail if any bare cell's mean idle minute step exceeds this many milliseconds (0 disables)")
	out := flag.String("out", "BENCH_scale.json", "output file ('-' for stdout only)")
	flag.Parse()

	pops, err := intList("scale", *scale)
	if err != nil {
		return err
	}

	cat := pulse.Catalog()
	// newRuntime builds one cell's runtime with a fresh policy, so cells
	// share no state. observed attaches pulsed's default observer chain to
	// both the controller and the runtime.
	newRuntime := func(fns int, observed bool) (*runtime.Runtime, error) {
		asg := pulse.UniformAssignment(cat, fns)
		var obs telemetry.Observer
		if observed {
			tel, err := telemetry.New(telemetry.Config{})
			if err != nil {
				return nil, err
			}
			prov, err := provenance.NewRecorder(provenance.RecorderConfig{
				Catalog: cat, Assignment: asg, Names: identity.DefaultNames(fns),
			})
			if err != nil {
				return nil, err
			}
			obs = telemetry.Multi(tel, prov)
		}
		p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Observer: obs})
		if err != nil {
			return nil, err
		}
		return runtime.New(runtime.Config{Catalog: cat, Assignment: asg, Policy: p, Observer: obs})
	}

	file := benchFile{Bench: "runtime-scale", HostCPUs: goruntime.NumCPU()}
	if file.HostCPUs == 1 {
		file.HostNote = "measured on a 1-CPU host: scale latencies have no background-GC overlap"
	}
	cfg := runtime.ScaleConfig{Populations: pops}
	cfg.NewRuntime = func(fns int) (*runtime.Runtime, error) { return newRuntime(fns, false) }
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
	cfg.NewRuntime = func(fns int) (*runtime.Runtime, error) { return newRuntime(fns, true) }
	if file.ScaleObserved, err = runScaleSweep("scale+chain", cfg, maxBytes, maxIdleMs); err != nil {
		return err
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
	if err := checkBudgets(label, results, maxBytesPerFn, maxIdleStepMs); err != nil {
		return nil, err
	}
	return results, nil
}

// checkBudgets returns an error naming the first cell over a budget; a zero
// budget is disabled, and a cell exactly at its budget passes.
func checkBudgets(label string, results []runtime.ScaleResult, maxBytesPerFn, maxIdleStepMs float64) error {
	for _, res := range results {
		if maxBytesPerFn > 0 && res.BytesPerFunction > maxBytesPerFn {
			return fmt.Errorf("%s budget breach at %d functions: %.0f bytes/function exceeds budget %.0f",
				label, res.Functions, res.BytesPerFunction, maxBytesPerFn)
		}
		if maxIdleStepMs > 0 && res.IdleStepMicros > maxIdleStepMs*1000 {
			return fmt.Errorf("%s budget breach at %d functions: idle step %.1fµs exceeds budget %.1fms",
				label, res.Functions, res.IdleStepMicros, maxIdleStepMs)
		}
	}
	return nil
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
