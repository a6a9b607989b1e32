package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"time"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/runtime"
)

// scale100k: the controller, the full observer chain and the runtime that
// pulsed -attribution -alerts -tournament mpc,hawkes,qlearn builds, in
// process at 100 000 functions. The bench plays both the callers and the
// minute ticker, so the work is a fixed function of the seed and the number
// of minutes run, and the outcome can be compared bit for bit with an
// observer-less serial replay.

const (
	scalePopulation = 100_000
	scaleSetups     = 3
	scaleWarmup     = 20 // untimed minutes before the timed phase
	// The timed phase is a fixed amount of work, so that its outcome can be
	// checked and two runs do the same thing: whole cycles of scaleCycle
	// minutes — ordinary minutes invoke a rotating 1 % cohort once each, the
	// last minute of a cycle 5 %, so Algorithm 1 detects a peak and Algorithm
	// 2 downgrades — and scaleMinutesPerSecond minutes per second asked for,
	// which is what the seed commit steps on the builder's host.
	scaleCycle            = 25
	scaleMinutesPerSecond = 10
	scaleCohortPct        = 1
	scaleBurstPct         = 5
	// The traced run's in-process ops probe: one scrape pass at this
	// population builds and encodes ~250 MB of replies and takes ~10 s.
	scaleScrapes = 1
	scaleChurns  = 9
)

// schedule is the invocation plan: which slots minute m invokes.
type schedule struct {
	perm []int32 // seeded slot order the cohorts rotate through
}

func newSchedule(seed int64, n int) *schedule {
	perm := rand.New(rand.NewSource(seed ^ 0x5ca1e)).Perm(n)
	s := &schedule{perm: make([]int32, n)}
	for i, p := range perm {
		s.perm[i] = int32(p)
	}
	return s
}

// cohort appends minute m's slots to buf.
func (s *schedule) cohort(m int, buf []int32) []int32 {
	n := len(s.perm)
	base := n * scaleCohortPct / 100
	size := base
	if m%scaleCycle == scaleCycle-1 {
		size = n * scaleBurstPct / 100
	}
	for j, at := 0, m*base%n; j < size; j++ {
		buf = append(buf, s.perm[(at+j)%n])
	}
	return buf
}

// scaleOutcome is what the oracle comparison needs from a replay.
type scaleOutcome struct {
	stats       runtime.Stats
	peakMinutes int
	downgrades  int
}

// scaleRun is one measured pass over the schedule.
type scaleRun struct {
	res     *result
	outcome scaleOutcome
	minutes int // total minutes stepped, warm-up included
	stepNs  []int64
	asm     *assembly
}

// scaleStepper drives one assembly through the schedule minute by minute.
type scaleStepper struct {
	rt       *runtime.Runtime
	sched    *schedule
	family   models.Assignment
	variants []map[string]bool
	buf      []int32
	minute   int
}

// invokeMinute invokes the minute's cohort, timing each call into lat when
// lat is non-nil, and returns the number of invocations and failures.
func (s *scaleStepper) invokeMinute(lat *hist, res *result) (int, error) {
	s.buf = s.sched.cohort(s.minute, s.buf[:0])
	for _, slot := range s.buf {
		fn := int(slot)
		t0 := time.Now()
		inv, err := s.rt.Invoke(fn)
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("minute %d invoke %d: %w", s.minute, fn, err)
		}
		if lat != nil {
			lat.record(int64(d))
		}
		if res != nil && (inv.Function != fn || inv.Minute != s.minute || !s.variants[s.family[fn]][inv.Variant]) {
			res.failed++
			res.check(false, "minute %d invoke %d: reply %+v", s.minute, fn, inv)
		}
	}
	return len(s.buf), nil
}

func (s *scaleStepper) step() (time.Duration, error) {
	t0 := time.Now()
	err := s.rt.Step()
	s.minute++
	return time.Since(t0), err
}

// liveHeap is the double-GC-fenced live heap: the second collection frees
// what the first one's finalizers released.
func liveHeap() uint64 {
	var m goruntime.MemStats
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&m)
	return m.HeapAlloc
}

func variantSets(cat *models.Catalog) []map[string]bool {
	out := make([]map[string]bool, len(cat.Families))
	for i, fam := range cat.Families {
		out[i] = make(map[string]bool, len(fam.Variants))
		for _, v := range fam.Variants {
			out[i][v.Name] = true
		}
	}
	return out
}

// runScale is the untraced scale100k workload.
func runScale(e *env) (*result, error) {
	run, err := scalePass(e, scalePopulation, nil)
	if err != nil {
		return nil, err
	}
	res := run.res

	run.asm.close()

	// Oracle: the same schedule through an observer-less controller and a
	// serial-mode runtime must end in the same state, bit for bit.
	cat := pulse.Catalog()
	asg := models.RandomAssignment(rand.New(rand.NewSource(e.seed)), cat, scalePopulation)
	want, err := scaleOracle(cat, asg, newSchedule(e.seed, scalePopulation), run.minutes)
	if err != nil {
		return nil, err
	}
	progress("scale100k: oracle replayed %d minutes", run.minutes)
	res.check(run.outcome == want, "oracle mismatch after %d minutes:\n  chain  %+v\n  oracle %+v", run.minutes, run.outcome, want)
	res.check(want.peakMinutes > 0 && want.downgrades > 0,
		"the schedule never reached Algorithm 2: %d peak minutes, %d downgrades", want.peakMinutes, want.downgrades)
	return res, nil
}

// scalePass builds the assembly (scaleSetups times, the median build time
// being setup_s), warms it up, and runs the timed phase. tr is nil for the
// untraced run.
func scalePass(e *env, population int, tr *tracer) (*scaleRun, error) {
	res := newResult("scale100k")
	cat := pulse.Catalog()
	asg := models.RandomAssignment(rand.New(rand.NewSource(e.seed)), cat, population)
	sched := newSchedule(e.seed, population)
	// Invoke latency is summarised per minute and the minutes by their
	// median, like the socket workloads' per-second windows.
	lat := &hist{}
	var p50s, p99s []float64

	var asm *assembly
	var baseline uint64
	setups := make([]float64, 0, scaleSetups)
	for i := 0; i < scaleSetups; i++ {
		if asm != nil {
			asm.close()
			asm = nil
		}
		baseline = liveHeap()
		t0 := time.Now()
		var err error
		if asm, err = buildAssembly(fullFeatures(), cat, asg, tr.hooks()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", medianFloat(setups), "s", len(setups))
	progress("scale100k: built %d times, %v s", len(setups), setups)

	st := &scaleStepper{rt: asm.rt, sched: sched, family: asg, variants: variantSets(cat)}
	for st.minute < scaleWarmup {
		if _, err := st.invokeMinute(nil, nil); err != nil {
			asm.close()
			return nil, err
		}
		if _, err := st.step(); err != nil {
			asm.close()
			return nil, err
		}
	}

	// Start every run's timed phase from the same collector state: what the
	// discarded set-ups left behind would otherwise decide when the first
	// collections of the phase fall.
	goruntime.GC()
	progress("scale100k: warmed up %d minutes", scaleWarmup)
	run := &scaleRun{res: res, asm: asm}
	var gc0 goruntime.MemStats
	goruntime.ReadMemStats(&gc0)
	usage0, err := readProc(0)
	if err != nil {
		asm.close()
		return nil, err
	}
	start := time.Now()
	cycles := (e.seconds*scaleMinutesPerSecond + scaleCycle - 1) / scaleCycle
	invoked := 0
	for c := 0; c < cycles; c++ {
		for i := 0; i < scaleCycle; i++ {
			*lat = hist{}
			n, err := st.invokeMinute(lat, res)
			if err != nil {
				asm.close()
				return nil, err
			}
			invoked += n
			p50s = append(p50s, float64(lat.quantile(0.50))/1e3)
			p99s = append(p99s, float64(lat.quantile(0.99))/1e3)
			peaksBefore := asm.controller.PeakMinutes()
			stepStart := time.Now()
			d, err := st.step()
			if err != nil {
				asm.close()
				return nil, err
			}
			run.stepNs = append(run.stepNs, int64(d))
			if tr != nil {
				tr.endMinute(st.minute-1, stepStart, stepStart.Add(d), asm.controller.PeakMinutes() > peaksBefore)
			}
		}
	}
	elapsed := time.Since(start)
	var gc1 goruntime.MemStats
	goruntime.ReadMemStats(&gc1)
	progress("scale100k: timed %d minutes, %d collections", len(run.stepNs), gc1.NumGC-gc0.NumGC)
	usage, err := readProc(0)
	if err != nil {
		asm.close()
		return nil, err
	}
	run.minutes = st.minute
	run.outcome = scaleOutcome{asm.rt.Stats(), asm.controller.PeakMinutes(), asm.controller.TotalDowngrades()}
	heap := liveHeap()

	res.attempted = invoked
	steps := append([]int64(nil), run.stepNs...)
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	res.set("invoke_rps", float64(invoked)/elapsed.Seconds(), "req/s", invoked)
	res.set("invoke_p50_us", medianFloat(p50s), "us", invoked)
	res.set("invoke_p99_us", medianFloat(p99s), "us", invoked)
	res.set("step_ms_p50", float64(quantileSorted(steps, 0.50))/1e6, "ms", len(steps))
	res.set("step_ms_p95", float64(quantileSorted(steps, 0.95))/1e6, "ms", len(steps))
	// In process the caller that arrives at the minute boundary waits for
	// exactly the step, so the stall metrics are the step's.
	res.set("stall_ms_p50", float64(quantileSorted(steps, 0.50))/1e6, "ms", len(steps))
	res.set("runtime.stall_ms_p95", float64(quantileSorted(steps, 0.95))/1e6, "ms", len(steps))
	res.set("cpu_us_per_req", (usage.cpuSec-usage0.cpuSec)*1e6/float64(invoked), "us", invoked)
	res.set("daemon_rss_mb", usage.rssMB, "MB", 1)
	if heap > baseline {
		res.set("bytes_per_fn", float64(heap-baseline)/float64(population), "B", 1)
	}
	res.set("loadgen.conns", 1, "count", 1)
	res.set("core.peak_minutes", float64(run.outcome.peakMinutes), "count", run.minutes)
	if run.outcome.peakMinutes > 0 {
		res.set("core.downgrades_per_peak", float64(run.outcome.downgrades)/float64(run.outcome.peakMinutes), "count", run.outcome.peakMinutes)
	}
	return run, nil
}

// scaleOracle replays minutes of the schedule through a PULSE controller
// with no observer and a serial-mode runtime.
func scaleOracle(cat *models.Catalog, asg models.Assignment, sched *schedule, minutes int) (scaleOutcome, error) {
	controller, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		return scaleOutcome{}, err
	}
	rt, err := runtime.New(runtime.Config{Catalog: cat, Assignment: asg, Policy: controller, Mode: runtime.ModeSerial})
	if err != nil {
		controller.Close()
		return scaleOutcome{}, err
	}
	defer rt.Close()
	st := &scaleStepper{rt: rt, sched: sched}
	for st.minute < minutes {
		if _, err := st.invokeMinute(nil, nil); err != nil {
			return scaleOutcome{}, fmt.Errorf("oracle: %w", err)
		}
		if _, err := st.step(); err != nil {
			return scaleOutcome{}, fmt.Errorf("oracle: %w", err)
		}
	}
	return scaleOutcome{rt.Stats(), controller.PeakMinutes(), controller.TotalDowngrades()}, nil
}
