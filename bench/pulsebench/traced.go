package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
)

// Traced runs: the workload against the in-process assembly, once bare (the
// reference the tracing overhead is measured against) and once with the
// decorators of trace.go between the layers. Socket workloads are served by
// an http.Server with pulsed's settings on a real loopback listener and
// driven by the same generator as the untraced run.

const (
	microInvokes   = 20_000 // direct rt.Invoke calls
	microAPICalls  = 5_000  // /invoke through the handler, for allocations
	microIdleSteps = 5
	microRegisters = 10
	microFlattens  = 5
	microProbLoops = 20_000
	// memProfileRate is the heap-profile sampling rate of traced runs: finer
	// than Go's 512 KiB default so a few-MB layer is still resolved.
	memProfileRate = 64 << 10
)

// inproc is one in-process serving run.
type inproc struct {
	res   *result
	asm   *assembly
	pop   *population
	steps int
}

// serveInProcess builds the assembly the workload's flags describe, registers
// its population, serves it on loopback with a 100 ms minute ticker, and
// drives the workload's load at it. tr may be nil.
func serveInProcess(spec socketSpec, e *env, tr *tracer) (*inproc, error) {
	res := newResult(spec.name)
	pop := newPopulation(e.seed, spec.register)
	cat, asg := pulsedAssignment()

	t0 := time.Now()
	asm, err := buildAssembly(spec.features, cat, asg, tr.hooks())
	if err != nil {
		return nil, err
	}
	for slot := builtinFunctions; slot < len(pop.family); slot++ {
		if _, err := asm.rt.Register(pop.names[slot], pop.family[slot]); err != nil {
			asm.close()
			return nil, err
		}
	}
	res.set("setup_s", time.Since(t0).Seconds(), "s", 1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		asm.close()
		return nil, err
	}
	var handler http.Handler = asm.api
	if tr != nil {
		handler = tr.handler(asm.api)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = srv.Serve(ln) }()

	run := &inproc{res: res, asm: asm, pop: pop}
	stop := make(chan struct{})
	var tickErr error
	go func() {
		defer wg.Done()
		tick := time.NewTicker(tickEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if tickErr = run.step(tr); tickErr != nil {
					return
				}
			}
		}
	}()

	err = driveLoad(spec, pop, e, res, target{addr: ln.Addr().String(), tr: tr})
	close(stop)
	_ = srv.Close()
	wg.Wait()
	if err == nil {
		err = tickErr
	}
	if err != nil {
		asm.close()
		return nil, err
	}
	return run, nil
}

// step is the bench's own minute tick: rt.Step() under a timer.
func (r *inproc) step(tr *tracer) error {
	minute, peaks := r.asm.rt.Minute(), r.asm.controller.PeakMinutes()
	t0 := time.Now()
	err := r.asm.rt.Step()
	t1 := time.Now()
	r.steps++
	if tr != nil && err == nil {
		tr.endMinute(minute, t0, t1, r.asm.controller.PeakMinutes() > peaks)
	}
	return err
}

// traceSocket is --trace 1 for a socket workload.
func traceSocket(spec socketSpec, e *env) (*result, error) {
	// The metrics this run shares with the untraced one (the end-to-end
	// ones, and those demoted from them) are measured the same way: against
	// the spawned daemon.
	real, err := runSocket(spec, e)
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	progress("%s: measured the spawned daemon", spec.name)
	bare, err := serveInProcess(spec, e, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	bare.asm.close()
	bareRPS := bare.res.metrics["invoke_rps"].value
	bare = nil
	goruntime.GC()

	goruntime.MemProfileRate = memProfileRate
	tr := newTracer()
	run, err := serveInProcess(spec, e, tr)
	if err != nil {
		return nil, err
	}
	defer run.asm.close()
	res := run.res
	rps := res.metrics["invoke_rps"].value
	res.set("trace.overhead_pct", (bareRPS-rps)/bareRPS*100, "%", 1)

	// Serving path, from the request traces: what the client saw minus what
	// the API handler took is net/http, the kernel and the generator.
	if inv := tr.routes["invoke"]; inv != nil && inv.lat.n > 0 {
		serve := float64(inv.lat.quantile(0.5)) / 1e3
		res.set("api.invoke_serve_us", serve, "us", int(inv.lat.n))
		res.set("pulsed.http_self_us", res.metrics["invoke_p50_us"].value-serve, "us", int(inv.lat.n))
		res.set("pulsed.resp_bytes", float64(inv.bytes)/float64(inv.lat.n), "B", int(inv.lat.n))
	}
	loadSteps := run.steps
	invoked := res.attempted - res.failed
	res.set("runtime.seqlock_retries_per_step", float64(run.asm.rt.SeqlockRetries())/float64(loadSteps), "count", loadSteps)
	res.set("runtime.stripe_contention_per_kinv", float64(run.asm.rt.StripeContention())*1000/float64(invoked), "count", invoked)

	// Skip the ticks of the warm-up second.
	layerMetrics(res, tr, run.asm, warmupSeconds*int(time.Second/tickEvery))
	families := append([]int(nil), run.pop.family...)
	if err := microPhases(res, tr, run.asm, families, e.seed, func() error { return run.step(tr) }); err != nil {
		return nil, err
	}
	for name, s := range real.metrics {
		res.metrics[name] = s
	}
	res.attempted += real.attempted
	res.failed += real.failed
	res.failures = append(res.failures, real.failures...)
	return finishTrace(res, tr, e, len(families))
}

// traceScale is --trace 1 for scale100k.
func traceScale(e *env) (*result, error) {
	bare, err := scalePass(e, scalePopulation, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	bare.asm.close()
	untraced := bare.res
	bareP50 := untraced.metrics["step_ms_p50"].value
	bare = nil
	goruntime.GC()

	goruntime.MemProfileRate = memProfileRate
	tr := newTracer()
	run, err := scalePass(e, scalePopulation, tr)
	if err != nil {
		return nil, err
	}
	defer run.asm.close()
	res := run.res
	res.set("trace.overhead_pct", (res.metrics["step_ms_p50"].value-bareP50)/bareP50*100, "%", 1)
	res.set("runtime.seqlock_retries_per_step", float64(run.asm.rt.SeqlockRetries())/float64(run.minutes), "count", run.minutes)
	res.set("runtime.stripe_contention_per_kinv", float64(run.asm.rt.StripeContention())*1000/float64(res.attempted), "count", res.attempted)
	layerMetrics(res, tr, run.asm, 0)

	// The ops surface at this population, through the wrapped handler, so
	// the api.* scrape and churn routes are accounted.
	ops := newOpsRunner(handlerDo(tr.handler(run.asm.api)), []string{"fn-0"}, len(pulse.Catalog().Families), fullFeatures())
	ops.probe(scaleScrapes, scaleChurns)
	res.check(ops.firstErr == nil, "ops probe: %v", ops.firstErr)
	if ops.firstErr == nil {
		res.set("scrape_ms_p50", float64(medianInt(ops.scrapeNs))/1e6, "ms", len(ops.scrapeNs))
		res.set("churn_ms_p50", float64(medianInt(ops.churnNs))/1e6, "ms", len(ops.churnNs))
	}
	progress("scale100k: probed the ops surface")

	cat := pulse.Catalog()
	asg := models.RandomAssignment(rand.New(rand.NewSource(e.seed)), cat, scalePopulation)
	minute := run.minutes
	step := func() error {
		t0 := time.Now()
		err := run.asm.rt.Step()
		tr.endMinute(minute, t0, time.Now(), false)
		minute++
		return err
	}
	if err := microPhases(res, tr, run.asm, asg, e.seed, step); err != nil {
		return nil, err
	}
	// As on the socket workloads, what this run shares with the untraced one
	// is reported from the pass without decorators.
	for name, s := range untraced.metrics {
		res.metrics[name] = s
	}
	return finishTrace(res, tr, e, scalePopulation)
}

// layerMetrics reduces the per-minute rows of the load phase to the
// runtime / core / observer / tournament step metrics, skipping the first
// skip rows.
func layerMetrics(res *result, tr *tracer, asm *assembly, skip int) {
	tr.mu.Lock()
	rows := tr.rows
	tr.mu.Unlock()
	if skip < len(rows) {
		rows = rows[skip:]
	}
	if len(rows) == 0 {
		return
	}
	ms := func(pick func(r *minuteRow) int64, keep func(i int) bool) (float64, int) {
		var v []int64
		for i := range rows {
			if keep == nil || keep(i) {
				v = append(v, pick(&rows[i]))
			}
		}
		if len(v) == 0 {
			return 0, 0
		}
		return float64(medianInt(v)) / 1e6, len(v)
	}
	setMs := func(name string, pick func(r *minuteRow) int64, keep func(i int) bool) float64 {
		v, n := ms(pick, keep)
		res.set(name, v, "ms", n)
		return v
	}
	inPeak := func(i int) bool { return rows[i].peak }
	stepMs := setMs("runtime.step_ms", func(r *minuteRow) int64 { return r.stepNs }, nil)
	setMs("runtime.step_self_ms", func(r *minuteRow) int64 { return r.selfNs }, nil)
	setMs("core.record_ms", func(r *minuteRow) int64 { return r.recordNs }, nil)
	setMs("core.keepalive_ms", func(r *minuteRow) int64 { return r.keepAliveNs }, func(i int) bool { return !inPeak(i) })
	setMs("core.keepalive_peak_ms", func(r *minuteRow) int64 { return r.keepAliveNs }, inPeak)
	var chain float64
	for i, d := range tr.observers {
		chain += setMs("observer."+d.layer+".step_ms", func(r *minuteRow) int64 { return r.observerNs[i] }, nil)
		calls := make([]int64, len(rows))
		for j := range rows {
			calls[j] = int64(rows[j].observerCalls[i])
		}
		res.set("observer."+d.layer+".samples_per_step", float64(medianInt(calls)), "count", len(rows))
		if n := d.invCalls.Load(); n > 0 {
			res.set("observer."+d.layer+".invocation_ns", float64(d.invNs.Load())/float64(n), "ns", int(n))
		}
	}
	if stepMs > 0 {
		res.set("observer.chain_step_share", chain/stepMs, "ratio", len(rows))
	}
	for i, d := range tr.entrants {
		setMs("tournament."+d.inner.Name()+".step_ms", func(r *minuteRow) int64 { return r.entrantNs[i] }, nil)
	}
	res.set("core.peak_minutes", float64(asm.controller.PeakMinutes()), "count", len(rows))
	if p := asm.controller.PeakMinutes(); p > 0 {
		res.set("core.downgrades_per_peak", float64(asm.controller.TotalDowngrades())/float64(p), "count", p)
	}
}

// discardWriter is the cheapest possible http.ResponseWriter.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// handlerDo calls an http.Handler in process, discarding the reply body.
func handlerDo(h http.Handler) doFunc {
	return func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		w := &discardWriter{header: make(http.Header)}
		h.ServeHTTP(w, req)
		return w.status, nil, nil
	}
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.Mallocs
}

// microPhases measures, on the quiet assembly after the load, what a load
// phase cannot isolate: the runtime's Invoke and idle Step called directly,
// registration, the handler's allocations, and core's algorithms standalone.
// family is the population's slot → family map; step is the bench's traced
// Step.
func microPhases(res *result, tr *tracer, asm *assembly, family []int, seed int64, step func() error) error {
	rng := rand.New(rand.NewSource(seed ^ 0x3c))
	n := len(family)

	// Direct invokes, uniformly over the population: a minute's worth of
	// first-touch (cold) and repeat (warm) invocations.
	slots := make([]int, microInvokes)
	for i := range slots {
		slots[i] = rng.Intn(n)
	}
	var obsNs0, cold0 int64
	for _, d := range tr.observers {
		obsNs0 += d.invNs.Load()
	}
	cold0 = tr.policy.coldNs.Load()
	var lat hist
	m0 := mallocs()
	for _, fn := range slots {
		t0 := time.Now()
		_, err := asm.rt.Invoke(fn)
		lat.record(int64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("micro invoke %d: %w", fn, err)
		}
	}
	allocs := mallocs() - m0
	var obsNs int64
	for _, d := range tr.observers {
		obsNs += d.invNs.Load()
	}
	below := float64(obsNs-obsNs0+tr.policy.coldNs.Load()-cold0) / microInvokes
	res.set("runtime.invoke_ns", float64(lat.quantile(0.5)), "ns", microInvokes)
	res.set("runtime.invoke_self_ns", lat.mean()-below, "ns", microInvokes)
	res.set("runtime.invoke_allocs", float64(allocs)/microInvokes, "count", microInvokes)
	if c := tr.policy.coldCalls.Load(); c > 0 {
		res.set("core.cold_variant_ns", float64(tr.policy.coldNs.Load())/float64(c), "ns", int(c))
	}
	if s, ok := res.metrics["api.invoke_serve_us"]; ok {
		res.set("api.invoke_self_us", s.value-float64(lat.quantile(0.5))/1e3, "us", s.n)
	}

	// Idle steps: close the minute the invokes landed in, let the plans it
	// made expire, then time steps over a population with nothing to do.
	for i := 0; i < 2+pulse.DefaultKeepAliveWindow; i++ {
		if err := step(); err != nil {
			return err
		}
	}
	idle := make([]int64, 0, microIdleSteps)
	m0 = mallocs()
	for i := 0; i < microIdleSteps; i++ {
		t0 := time.Now()
		if err := step(); err != nil {
			return err
		}
		idle = append(idle, int64(time.Since(t0)))
	}
	res.set("runtime.step_idle_allocs", float64(mallocs()-m0)/microIdleSteps, "count", microIdleSteps)
	res.set("runtime.step_idle_ms", float64(medianInt(idle))/1e6, "ms", microIdleSteps)

	// Registration at this population, called directly.
	regs := make([]int64, 0, microRegisters)
	for i := 0; i < microRegisters; i++ {
		name := fmt.Sprintf("micro-%03d", i)
		t0 := time.Now()
		_, err := asm.rt.Register(name, i%len(pulse.Catalog().Families))
		regs = append(regs, int64(time.Since(t0)))
		if err == nil {
			err = asm.rt.Deregister(name)
		}
		if err != nil {
			return fmt.Errorf("micro register: %w", err)
		}
	}
	res.set("runtime.register_us", float64(medianInt(regs))/1e3, "us", microRegisters)

	// The API handler's own allocations per /invoke, without net/http's.
	req, err := http.NewRequest("POST", "/invoke?fn=0", nil)
	if err != nil {
		return err
	}
	w := &discardWriter{header: make(http.Header)}
	asm.api.ServeHTTP(w, req)
	m0 = mallocs()
	for i := 0; i < microAPICalls; i++ {
		asm.api.ServeHTTP(w, req)
	}
	res.set("api.invoke_allocs", float64(mallocs()-m0)/microAPICalls, "count", microAPICalls)
	if w.status != http.StatusOK {
		return fmt.Errorf("micro POST /invoke: status %d", w.status)
	}

	// Algorithm 2 standalone: flatten the decision vector the runtime holds
	// right now by a tenth of its memory.
	cat := pulse.Catalog()
	for i := 0; i < microInvokes/4; i++ { // give Algorithm 2 something alive
		if _, err := asm.rt.Invoke(slots[i]); err != nil {
			return err
		}
	}
	if err := step(); err != nil {
		return err
	}
	decisions := make([]int, n)
	for fn := range decisions {
		if decisions[fn], err = asm.rt.AliveVariant(fn); err != nil {
			return err
		}
	}
	opt, err := core.NewGlobalOptimizer(cat, family, 0, false)
	if err != nil {
		return err
	}
	kam, err := opt.KeptAliveMemoryMB(decisions)
	if err != nil {
		return err
	}
	ip := make([]float64, n)
	for i := range ip {
		ip[i] = rng.Float64()
	}
	flat := make([]int64, 0, microFlattens)
	for i := 0; i < microFlattens && kam > 0; i++ {
		work := append([]int(nil), decisions...)
		t0 := time.Now()
		_, err := opt.Flatten(work, ip, kam*0.9)
		flat = append(flat, int64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	if len(flat) > 0 {
		res.set("core.flatten_ms", float64(medianInt(flat))/1e6, "ms", len(flat))
	}

	// The function-centric optimizer's inner loop: probabilities over the
	// keep-alive window from a populated history, then the schedule.
	h, err := core.NewHistory(60)
	if err != nil {
		return err
	}
	for t, i := 0, 0; i < 200; i++ {
		t += 1 + rng.Intn(12)
		if err := h.Record(t); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for i := 0; i < microProbLoops; i++ {
		probs := h.Probabilities(pulse.DefaultKeepAliveWindow, core.BlendBoth)
		if _, err := core.Schedule(probs[1:], core.TechniqueT1{}, 3); err != nil {
			return err
		}
	}
	res.set("core.probabilities_ns", float64(time.Since(t0))/microProbLoops, "ns", microProbLoops)
	return nil
}

// finishTrace attributes the live heap to layers, fills the API route
// metrics, writes the trace file and zero-fills what does not apply.
func finishTrace(res *result, tr *tracer, e *env, population int) (*result, error) {
	for layer, bytes := range heapByLayer() {
		name := layer + ".bytes_per_fn"
		if layer != "core" && layer != "runtime" {
			name = "observer." + name
		}
		res.set(name, float64(bytes)/float64(population), "B", 1)
	}

	tr.mu.Lock()
	for route, metric := range map[string]string{
		"metrics": "api.metrics_serve_ms", "attribution": "api.attribution_serve_ms",
		"top": "api.top_serve_ms", "why": "api.why_serve_ms",
	} {
		if rs := tr.routes[route]; rs != nil && rs.lat.n > 0 {
			res.set(metric, float64(rs.lat.quantile(0.5))/1e6, "ms", int(rs.lat.n))
		}
	}
	for route, metric := range map[string]string{"register": "api.register_us", "deregister": "api.deregister_us"} {
		if rs := tr.routes[route]; rs != nil && rs.lat.n > 0 {
			res.set(metric, float64(rs.lat.quantile(0.5))/1e3, "us", int(rs.lat.n))
		}
	}
	for route, metric := range map[string]string{"metrics": "api.metrics_bytes", "attribution": "api.attribution_bytes"} {
		if rs := tr.routes[route]; rs != nil && rs.lat.n > 0 {
			res.set(metric, float64(rs.bytes)/float64(rs.lat.n), "B", int(rs.lat.n))
		}
	}
	spans := len(tr.spans)
	tr.mu.Unlock()

	path, err := tr.write(e.outDir, res.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans in %s\n", spans, path)
	res.set("trace.spans", float64(spans), "count", 1)
	res.set("invoke_fail_ratio", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted)
	// A layer the workload's flags leave out (the tournament on hot12, HTTP
	// on scale100k) reports 0.
	for _, d := range perLayer {
		if _, ok := res.metrics[d.Name]; !ok && d.Name != "build_s" {
			res.set(d.Name, 0, d.Unit, 0)
		}
	}
	return res, nil
}

// heapByLayer attributes the live heap to this repo's layers from the
// runtime's sampled heap profile: each sampled allocation goes to the layer
// of the innermost frame that is in one of the repo's internal packages.
// The collections before it make the profile current.
func heapByLayer() map[string]int64 {
	goruntime.GC()
	goruntime.GC()
	var records []goruntime.MemProfileRecord
	for n, ok := goruntime.MemProfile(nil, false); !ok; {
		records = make([]goruntime.MemProfileRecord, n+64)
		if n, ok = goruntime.MemProfile(records, false); ok {
			records = records[:n]
		}
	}

	pkgLayer := map[string]string{
		"telemetry": "telemetry", "provenance": "provenance", "alert": "alert",
		"attribution": "attribution", "tournament": "attribution", "predict": "attribution", "policy": "attribution",
		"core": "core", "runtime": "runtime", "identity": "runtime",
	}
	const prefix = "github.com/pulse-serverless/pulse/internal/"
	out := make(map[string]int64)
	rate := float64(goruntime.MemProfileRate)
	for i := range records {
		r := &records[i]
		inuse := r.InUseBytes()
		if inuse <= 0 || r.AllocObjects == 0 {
			continue
		}
		// Undo the sampling: an allocation of size s is sampled with
		// probability 1-exp(-s/rate).
		size := float64(r.AllocBytes) / float64(r.AllocObjects)
		scale := 1 / (1 - math.Exp(-size/rate))
		frames := goruntime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if rest, ok := strings.CutPrefix(f.Function, prefix); ok {
				pkg, _, _ := strings.Cut(rest, ".")
				pkg, _, _ = strings.Cut(pkg, "/")
				if layer, ok := pkgLayer[pkg]; ok {
					out[layer] += int64(float64(inuse) * scale)
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}
