package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	pulse "github.com/pulse-serverless/pulse"
)

// Socket workloads: hot12, fleet10k and opsmix drive a spawned pulsed over
// loopback HTTP/1.1. See README.md for why each exists.

// builtinFunctions is pulsed's fixed start-up population (cmd/pulsed
// nFunctions); /healthz confirms it after spawn.
const builtinFunctions = 12

// socketSpec is one socket workload.
type socketSpec struct {
	name string
	// features are the pulsed flags beyond -addr/-compress.
	features features
	// register is how many functions set-up adds through POST /functions.
	register int
	// zipfS is the Zipf exponent of the invoke key distribution over every
	// slot (built-in and registered), ranks mapped to slots by a seeded
	// permutation.
	zipfS float64
	// setups is how many times set-up (spawn → ready → register) runs; the
	// median is setup_s and the last daemon serves the timed phase.
	setups int
	// opsConn replaces the last invoke connection with one running the ops
	// cycle (scrapes and register/deregister churn) during the timed phase.
	opsConn bool
}

var socketSpecs = map[string]socketSpec{
	"hot12":    {name: "hot12", features: defaultFeatures(), zipfS: 1.2, setups: 11},
	"fleet10k": {name: "fleet10k", features: fullFeatures(), register: 10_000, zipfS: 1.05, setups: 3},
	"opsmix":   {name: "opsmix", features: fullFeatures(), register: 2_000, zipfS: 1.2, setups: 3, opsConn: true},
}

const (
	warmupSeconds = 1
	// checkEvery is the stride of the deterministic /invoke body sample that
	// is decoded and checked; every reply's status is checked.
	checkEvery = 64
	// Post-phase probe sizes on workloads without an ops connection: the
	// daemon is otherwise idle, so a handful of samples is a stable median.
	probeScrapes = 7
	probeChurns  = 15
)

// population is what the bench knows about the daemon's slot table: each
// slot's family (for the variant check) and name (for /why).
type population struct {
	family   []int
	names    []string
	variants []map[string]bool // per family: its variants' names
}

func newPopulation(seed int64, registered int) *population {
	cat := pulse.Catalog()
	p := &population{variants: variantSets(cat)}
	for i, fam := range pulse.UniformAssignment(cat, builtinFunctions) {
		p.family = append(p.family, fam)
		p.names = append(p.names, "fn-"+strconv.Itoa(i))
	}
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < registered; j++ {
		p.family = append(p.family, rng.Intn(len(cat.Families)))
		p.names = append(p.names, fmt.Sprintf("bench-%06d", j))
	}
	return p
}

// setup spawns a daemon and registers the population's extra functions over
// one connection, in order, so slot numbers are deterministic. It returns
// the ready daemon and the spawn→ready→registered wall time.
func (p *population) setup(bin string, flags []string) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := spawn(bin, flags)
	if err != nil {
		return nil, 0, err
	}
	c, err := dialConn(d.addr)
	if err != nil {
		_ = d.stop()
		return nil, 0, err
	}
	defer c.close()
	for slot := builtinFunctions; slot < len(p.family); slot++ {
		got, err := register(c, p.names[slot], p.family[slot])
		if err == nil && got != slot {
			err = fmt.Errorf("register %s: daemon issued slot %d, want %d", p.names[slot], got, slot)
		}
		if err != nil {
			_ = d.stop()
			return nil, 0, err
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

func register(c *conn, name string, family int) (int, error) {
	body := fmt.Sprintf(`{"name":%q,"family":%d}`, name, family)
	status, reply, err := c.do("POST", "/functions", []byte(body))
	if err != nil {
		return 0, err
	}
	if status != 201 {
		return 0, fmt.Errorf("POST /functions %s: status %d: %s", name, status, reply)
	}
	var out struct{ Function int }
	if err := json.Unmarshal(reply, &out); err != nil {
		return 0, fmt.Errorf("POST /functions %s: %v", name, err)
	}
	return out.Function, nil
}

// getJSON issues a GET that must answer 200 and decodes the reply.
func getJSON(c *conn, path string, v any) error {
	status, body, err := c.do("GET", path, nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// statsReply is the part of GET /stats the conservation check needs.
type statsReply struct {
	Minute      int
	Invocations int
	WarmStarts  int
	ColdStarts  int
}

// invoker is one closed-loop invoke connection.
type invoker struct {
	c     *conn
	pop   *population
	zipf  *rand.Zipf
	perm  []int32 // Zipf rank → slot
	paths []string

	tr *tracer // traced runs: every traceEvery-th request leaves a client span

	// One histogram per second of the phase: the reported rate and
	// percentiles are medians over the seconds, so that a second in which
	// the host ran something else does not move them.
	perSecond  []hist
	windowMax  []int64 // per 100 ms window of the phase: slowest reply completed in it
	ok, failed int
	sent       int // drives the 1-in-checkEvery body check
	lastMinute int
	firstErr   error
}

func (w *invoker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// run invokes until deadline, recording into windows measured from start.
func (w *invoker) run(start, deadline time.Time) {
	for {
		slot := int(w.perm[w.zipf.Uint64()])
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		var spanID int64
		if w.tr != nil && w.sent%traceEvery == 0 {
			spanID = w.tr.ids.Add(1)
			w.c.header = fmt.Sprintf("%s: %d,%d\r\n", traceHeader, requestTraceBase+spanID, spanID)
		}
		status, body, err := w.c.do("POST", w.paths[slot], nil)
		t1 := time.Now()
		if spanID != 0 {
			w.c.header = ""
			w.tr.clientSpan(spanID, requestTraceBase+spanID, t0, t1)
		}
		w.sent++
		switch {
		case err != nil:
			w.fail(fmt.Errorf("invoke fn=%d: %w", slot, err))
			return // the connection is no longer in a known state
		case status != 200:
			w.fail(fmt.Errorf("invoke fn=%d: status %d: %s", slot, status, body))
			continue
		}
		if w.sent%checkEvery == 0 {
			if err := w.check(slot, body); err != nil {
				w.fail(err)
				continue
			}
		}
		w.ok++
		d := int64(t1.Sub(t0))
		at := t1.Sub(start)
		if sec := int(at / time.Second); sec < len(w.perSecond) {
			w.perSecond[sec].record(d)
		}
		if win := int(at / tickEvery); win < len(w.windowMax) && d > w.windowMax[win] {
			w.windowMax[win] = d
		}
	}
}

// check decodes one /invoke reply: it must name the requested slot, a
// variant of that slot's family, and a minute no earlier than the last one
// this connection saw.
func (w *invoker) check(slot int, body []byte) error {
	var inv struct {
		Function int
		Minute   int
		Variant  string
	}
	if err := json.Unmarshal(body, &inv); err != nil {
		return fmt.Errorf("invoke fn=%d: bad body: %v", slot, err)
	}
	if inv.Function != slot {
		return fmt.Errorf("invoke fn=%d: reply is for function %d", slot, inv.Function)
	}
	if !w.pop.variants[w.pop.family[slot]][inv.Variant] {
		return fmt.Errorf("invoke fn=%d: variant %q is not in family %d", slot, inv.Variant, w.pop.family[slot])
	}
	if inv.Minute < w.lastMinute {
		return fmt.Errorf("invoke fn=%d: minute went back from %d to %d", slot, w.lastMinute, inv.Minute)
	}
	w.lastMinute = inv.Minute
	return nil
}

// reset discards warm-up measurements, keeping the connection, the key
// stream and the minute watermark.
func (w *invoker) reset(dur time.Duration) {
	w.perSecond = make([]hist, int(dur/time.Second))
	w.windowMax = make([]int64, int(dur/tickEvery))
	w.ok, w.failed, w.firstErr = 0, 0, nil
}

// doFunc issues one HTTP request and returns the status and reply body: a
// connection's do, or (handlerDo) a handler called in process.
type doFunc func(method, path string, body []byte) (int, []byte, error)

// opsRunner drives the ops cycle: the enabled read endpoints of the six an
// operator's tooling polls, then one register + deregister pair.
type opsRunner struct {
	do       doFunc
	names    []string // functions /why rotates through
	families int
	gets     []string // scrape cycle paths, "/why?fn=" completed per cycle
	cycle    int

	scrapeNs, churnNs []int64
	ok, failed        int
	firstErr          error
}

func newOpsRunner(do doFunc, names []string, families int, f features) *opsRunner {
	gets := []string{"/metrics", "/stats"}
	if f.attribution {
		gets = append(gets, "/top?format=json", "/top?by=policy&format=json", "/attribution")
	}
	gets = append(gets, "/why?fn=")
	return &opsRunner{do: do, names: names, families: families, gets: gets}
}

func (o *opsRunner) expect(method, path string, want int, body []byte) bool {
	status, reply, err := o.do(method, path, body)
	if err == nil && status != want {
		if len(reply) > 200 {
			reply = reply[:200]
		}
		err = fmt.Errorf("status %d, want %d: %s", status, want, reply)
	}
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = fmt.Errorf("%s %s: %w", method, path, err)
		}
		return false
	}
	o.ok++
	return true
}

func (o *opsRunner) scrape() {
	t0 := time.Now()
	good := true
	for _, path := range o.gets {
		if strings.HasSuffix(path, "fn=") {
			path += o.names[o.cycle%len(o.names)]
		}
		good = o.expect("GET", path, 200, nil) && good
	}
	if good {
		o.scrapeNs = append(o.scrapeNs, int64(time.Since(t0)))
	}
}

func (o *opsRunner) churn() {
	name := fmt.Sprintf("churn-%06d", o.cycle)
	body := fmt.Sprintf(`{"name":%q,"family":%d}`, name, o.cycle%o.families)
	t0 := time.Now()
	good := o.expect("POST", "/functions", 201, []byte(body))
	good = o.expect("DELETE", "/functions/"+name, 200, nil) && good
	if good {
		o.churnNs = append(o.churnNs, int64(time.Since(t0)))
	}
}

// probe runs a fixed number of scrape passes and churn pairs back to back, for
// targets nothing else is loading.
func (o *opsRunner) probe(scrapes, churns int) {
	for ; o.cycle < max(scrapes, churns); o.cycle++ {
		if o.cycle < scrapes {
			o.scrape()
		}
		if o.cycle < churns {
			o.churn()
		}
	}
}

func (o *opsRunner) run(deadline time.Time) {
	for time.Now().Before(deadline) && o.firstErr == nil {
		o.scrape()
		o.churn()
		o.cycle++
	}
}

// target is where the load goes: a spawned pulsed, or (pid 0) the in-process
// server of a traced run, whose CPU and memory are not the daemon's alone and
// are therefore not reported.
type target struct {
	addr string
	pid  int
	tr   *tracer
}

// runSocket runs one socket workload end to end against a spawned pulsed.
func runSocket(spec socketSpec, e *env) (*result, error) {
	res := newResult(spec.name)
	pop := newPopulation(e.seed, spec.register)
	flags := spec.features.flags()

	// Set-up, several times over: the median is setup_s, the last daemon
	// stays up for the run.
	var d *daemon
	setups := make([]float64, 0, spec.setups)
	for i := 0; i < spec.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
		}
		var took float64
		var err error
		if d, took, err = pop.setup(e.pulsed, flags); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, took)
	}
	res.set("setup_s", medianFloat(setups), "s", len(setups))

	if err := driveLoad(spec, pop, e, res, target{addr: d.addr, pid: d.cmd.Process.Pid}); err != nil {
		_ = d.stop()
		return nil, err
	}
	if err := d.stop(); err != nil {
		res.check(false, "%v", err)
	}
	return res, nil
}

// driveLoad is the generator: it checks the target is the system the
// workload names, warms it up, runs the timed phase over e.conns closed-loop
// connections, checks conservation from outside, and reports the metrics.
func driveLoad(spec socketSpec, pop *population, e *env, res *result, tgt target) error {
	ctl, err := dialConn(tgt.addr)
	if err != nil {
		return err
	}
	defer ctl.close()
	var hz healthz
	if err := getJSON(ctl, "/healthz", &hz); err != nil {
		return err
	}
	res.check(hz.Functions == len(pop.family), "healthz: %d functions, want %d", hz.Functions, len(pop.family))
	if msg := spec.features.mismatch(hz); msg != "" {
		res.check(false, "healthz does not match the workload's flags: %s", msg)
	}

	paths := make([]string, len(pop.family))
	for i := range paths {
		paths[i] = "/invoke?fn=" + strconv.Itoa(i)
	}
	perm := make([]int32, len(pop.family))
	for i, s := range rand.New(rand.NewSource(e.seed ^ 0x5eed)).Perm(len(perm)) {
		perm[i] = int32(s)
	}
	// opsmix is two parties by definition, even on a one-core host.
	conns := e.conns
	if spec.opsConn {
		conns = 2
	}
	var invokers []*invoker
	var ops *opsRunner
	for i := 0; i < conns; i++ {
		c, err := dialConn(tgt.addr)
		if err != nil {
			return err
		}
		defer c.close()
		if spec.opsConn && i == conns-1 {
			ops = newOpsRunner(c.do, pop.names, len(pop.variants), spec.features)
			continue
		}
		rng := rand.New(rand.NewSource(e.seed + int64(i)*7919))
		invokers = append(invokers, &invoker{
			c: c, pop: pop, perm: perm, paths: paths, tr: tgt.tr,
			zipf: rand.NewZipf(rng, spec.zipfS, 1, uint64(len(perm)-1)),
		})
	}
	res.set("loadgen.conns", float64(conns), "count", 1)

	phase := func(dur time.Duration, withOps bool) (time.Time, time.Time) {
		for _, w := range invokers {
			w.reset(dur)
		}
		start := time.Now()
		deadline := start.Add(dur)
		var wg sync.WaitGroup
		for _, w := range invokers {
			wg.Add(1)
			go func(w *invoker) { defer wg.Done(); w.run(start, deadline) }(w)
		}
		if withOps && ops != nil {
			wg.Add(1)
			go func() { defer wg.Done(); ops.run(deadline) }()
		}
		wg.Wait()
		return start, time.Now()
	}

	phase(warmupSeconds*time.Second, false)
	for _, w := range invokers {
		if w.firstErr != nil {
			return fmt.Errorf("warm-up: %w", w.firstErr)
		}
	}

	var st0, st1 statsReply
	if err := getJSON(ctl, "/stats", &st0); err != nil {
		return err
	}
	var cpu0, cpu1 procUsage
	if tgt.pid != 0 {
		if cpu0, err = readProc(tgt.pid); err != nil {
			return err
		}
	}
	start, end := phase(time.Duration(e.seconds)*time.Second, true)
	if tgt.pid != 0 {
		if cpu1, err = readProc(tgt.pid); err != nil {
			return err
		}
	}
	if err := getJSON(ctl, "/stats", &st1); err != nil {
		return err
	}
	elapsed := end.Sub(start)

	// Merge the connections.
	perSecond := make([]hist, e.seconds)
	windows := make([]int64, int(time.Duration(e.seconds)*time.Second/tickEvery))
	ok := 0
	for _, w := range invokers {
		for i := range perSecond {
			perSecond[i].merge(&w.perSecond[i])
		}
		ok += w.ok
		res.attempted += w.ok + w.failed
		res.failed += w.failed
		res.check(w.firstErr == nil, "%v", w.firstErr)
		for i := range windows {
			windows[i] = max(windows[i], w.windowMax[i])
		}
	}
	if ok == 0 {
		return fmt.Errorf("%s: no invocation succeeded", spec.name)
	}

	// Conservation, from outside: what the daemon counted is what the
	// generator was told succeeded, and every invocation was warm or cold.
	res.check(st1.Invocations-st0.Invocations == ok,
		"conservation: /stats counted %d invocations over the run, the generator %d", st1.Invocations-st0.Invocations, ok)
	res.check(st1.WarmStarts+st1.ColdStarts == st1.Invocations,
		"conservation: warm %d + cold %d != invocations %d", st1.WarmStarts, st1.ColdStarts, st1.Invocations)
	// The ticker must have kept the simulated clock: one minute per 100 ms.
	// /stats brackets the phase slightly more widely than start..end, hence
	// the tolerance.
	wantMinutes := int(elapsed / tickEvery)
	tol := max(2, wantMinutes/50)
	res.check(abs(st1.Minute-st0.Minute-wantMinutes) <= tol,
		"minute advanced by %d over %v, want %d±%d", st1.Minute-st0.Minute, elapsed.Round(time.Millisecond), wantMinutes, tol)

	rps, p50, p99 := make([]float64, e.seconds), make([]float64, e.seconds), make([]float64, e.seconds)
	for i := range perSecond {
		rps[i] = float64(perSecond[i].n)
		p50[i] = float64(perSecond[i].quantile(0.50)) / 1e3
		p99[i] = float64(perSecond[i].quantile(0.99)) / 1e3
	}
	res.set("invoke_rps", medianFloat(rps), "req/s", ok)
	res.set("invoke_p50_us", medianFloat(p50), "us", ok)
	res.set("invoke_p99_us", medianFloat(p99), "us", ok)
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	res.set("stall_ms_p50", float64(quantileSorted(windows, 0.50))/1e6, "ms", len(windows))
	res.set("runtime.stall_ms_p95", float64(quantileSorted(windows, 0.95))/1e6, "ms", len(windows))
	if tgt.pid != 0 {
		res.set("cpu_us_per_req", (cpu1.cpuSec-cpu0.cpuSec)*1e6/float64(ok), "us", ok)
		// The high-water mark, not the instant: one reading of VmRSS catches
		// a Go heap anywhere between its live size and twice that.
		res.set("daemon_rss_mb", cpu1.peakRSSMB, "MB", 1)
		res.set("bytes_per_fn", cpu1.peakRSSMB*(1<<20)/float64(len(pop.family)), "B", 1)
	}

	// The daemon's own account of its minute barrier over the same minutes.
	var ts struct {
		Points []struct {
			Minute int
			Value  float64
		}
	}
	path := fmt.Sprintf("/timeseries?metric=step_latency_us&window=%d", st1.Minute-st0.Minute+64)
	if err := getJSON(ctl, path, &ts); err != nil {
		return err
	}
	var steps []float64
	for _, p := range ts.Points {
		if p.Minute >= st0.Minute && p.Minute < st1.Minute {
			steps = append(steps, p.Value/1e3)
		}
	}
	res.check(len(steps) > 0, "/timeseries has no step_latency_us point for minutes %d..%d", st0.Minute, st1.Minute)
	sort.Float64s(steps)
	res.set("step_ms_p50", quantileSorted(steps, 0.50), "ms", len(steps))
	res.set("step_ms_p95", quantileSorted(steps, 0.95), "ms", len(steps))

	// Scrapes and churn: concurrent with the invokes on opsmix, probed on
	// the otherwise idle daemon elsewhere.
	if ops == nil {
		ops = newOpsRunner(ctl.do, pop.names, len(pop.variants), spec.features)
		ops.probe(probeScrapes, probeChurns)
	} else {
		res.attempted += ops.ok + ops.failed
		res.failed += ops.failed
	}
	res.check(ops.firstErr == nil, "ops: %v", ops.firstErr)
	if len(ops.scrapeNs) > 0 && len(ops.churnNs) > 0 {
		res.set("scrape_ms_p50", float64(medianInt(ops.scrapeNs))/1e6, "ms", len(ops.scrapeNs))
		res.set("churn_ms_p50", float64(medianInt(ops.churnNs))/1e6, "ms", len(ops.churnNs))
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
