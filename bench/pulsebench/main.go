// Command pulsebench is this repository's benchmark: it measures the pulsed
// daemon an operator runs, over a real socket, end to end and layer by
// layer. BENCHMARK.json at the repository root names its workloads and
// metrics; README.md in the parent directory explains them.
//
//	cd bench && go run ./pulsebench                       # whole suite, human-readable
//	cd bench && go run ./pulsebench -repeat 2             # suite twice, spread vs bound
//	bash bench/run.sh --workload hot12 --seed 1 --seconds 10 --trace 0   # driver form
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	goruntime "runtime"
	"syscall"
	"time"
)

// env is what every workload run needs to know about this invocation.
type env struct {
	root    string // checkout root (holds cmd/pulsed)
	pulsed  string // built daemon binary
	buildS  float64
	seed    int64
	seconds int
	conns   int    // generator connections: never more than the host's cores
	outDir  string // where traced runs write trace-<workload>.json
}

var processStart = time.Now()

// progress reports a phase boundary on stderr, stamped with the time since
// the process started, so a slow run shows where it spent its budget.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

func main() {
	code := run()
	killAll()
	os.Exit(code)
}

func run() int {
	workload := flag.String("workload", "", "run one workload and print the driver's JSON result line (default: the whole suite)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same requests and schedule")
	seconds := flag.Int("seconds", 10, "length of each timed phase in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics from a traced run")
	repeat := flag.Int("repeat", 1, "run the suite this many times and report each end-to-end metric's spread against its bound")
	root := flag.String("root", "", "checkout root (default: found from the working directory)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pulsebench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pulsebench: -seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}

	e := &env{seed: *seed, seconds: *seconds, conns: min(2, goruntime.NumCPU())}
	var err error
	if e.root, err = findRoot(*root); err != nil {
		fmt.Fprintln(os.Stderr, "pulsebench:", err)
		return 1
	}
	e.outDir = filepath.Join(e.root, "bench", "out")

	// A signal must not leave a daemon behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	if *workload == "" {
		return runSuite(e, *repeat)
	}
	if e.pulsed, e.buildS, err = buildPulsed(e.root); err != nil {
		fmt.Fprintln(os.Stderr, "pulsebench:", err)
		return 1
	}
	return runOne(e, *workload, *trace == 1)
}

// findRoot locates the checkout: the directory holding cmd/pulsed, searched
// upwards from the working directory (go run -C bench leaves us in bench/).
func findRoot(flagValue string) (string, error) {
	dir := flagValue
	if dir == "" {
		var err error
		if dir, err = os.Getwd(); err != nil {
			return "", err
		}
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "pulsed", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir || flagValue != "" {
			return "", fmt.Errorf("no cmd/pulsed/main.go at or above %s: run from inside the repository", dir)
		}
		dir = parent
	}
}

// measure runs one workload, untraced or traced.
func measure(e *env, name string, traced bool) (*result, error) {
	spec, socket := socketSpecs[name]
	switch {
	case socket && traced:
		return traceSocket(spec, e)
	case socket:
		return runSocket(spec, e)
	case name == "scale100k" && traced:
		return traceScale(e)
	case name == "scale100k":
		return runScale(e)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOne is the driver's form: one workload, one JSON result line last on
// stdout, exit status 0 only when the run was measured and correct.
func runOne(e *env, name string, traced bool) int {
	res, err := measure(e, name, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pulsebench:", err)
		return 1
	}
	res.set("build_s", e.buildS, "s", 1)
	res.writeTable(os.Stderr)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := res.writeContract(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "pulsebench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}
