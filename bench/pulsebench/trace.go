package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
)

// Tracing, from outside: every span is recorded by a decorator this file
// places around a call into a layer's public surface — the API handler, the
// cluster.Policy the runtime drives, each telemetry.Observer of the chain,
// each tournament entrant — or by the bench around its own rt.Step() and
// rt.Invoke() calls. Nothing under cmd/ or internal/ is instrumented.
//
// Two kinds of trace come out:
//
//   - per request (socket workloads): client.roundtrip → api.serve, linked by
//     a header the generator sends on a 1-in-traceEvery sample of requests;
//   - per simulated minute: runtime.step → core.record / core.keepalive →
//     observer.<layer> → tournament.<entrant>. The per-function callbacks
//     (ObserveKeepAlive, entrant KeepAlive/Record) fire once per slot per
//     minute, so they are not one span each: each decorator folds a minute's
//     calls under one parent into a single aggregate span (calls = how many,
//     end = start + their summed time), and times only every hotStride-th of
//     them, scaling the sum, so that a million clock reads a minute do not
//     become the thing measured.
//
// A span's self time is its duration minus its children's.

const (
	traceEvery  = 16 // requests per recorded request trace
	hotStride   = 7  // per-slot callbacks per timed one; prime, so it cannot lock onto the 5 families
	traceHeader = "X-Bench-Trace"
	// Request traces are numbered from here, minute traces by their simulated
	// minute, so the two kinds never share a trace id.
	requestTraceBase = 1 << 32
)

// span is one record of bench/out/trace-<workload>.json.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root
	Trace  int64  `json:"trace"`  // request number or simulated minute
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace's epoch
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // aggregate of this many calls
}

// barrierCtx says which policy call the runtime's write window is inside,
// i.e. which span is the parent of an observer callback arriving now.
type barrierCtx int32

const (
	ctxStep      barrierCtx = iota // inside Step, outside the policy
	ctxRecord                      // inside Policy.RecordInvocations
	ctxKeepAlive                   // inside Policy.KeepAlive
	ctxLifecycle                   // inside Register / Deregister
	numCtx
)

var ctxSpanName = [numCtx]string{"runtime.step", "core.record", "core.keepalive", "runtime.lifecycle"}

// agg folds one decorator's calls under one parent.
type agg struct {
	first      int64 // start of the first call, ns since epoch
	calls      int
	exactNs    int64 // calls timed one by one
	hot        int   // per-slot calls, of which
	hotSampled int   // this many were timed,
	hotNs      int64 // taking this long
}

// ns is the estimated total time: the sampled per-slot calls scaled up.
func (a *agg) ns() int64 {
	if a.hotSampled == 0 {
		return a.exactNs
	}
	return a.exactNs + a.hotNs*int64(a.hot)/int64(a.hotSampled)
}

// minuteCosts is one Step as the decorators saw it, snapshotted inside the
// write window by the last self-observing decorator.
type minuteCosts struct {
	record, keepAlive [2]int64 // start, end (ns since epoch)
	observers         [][numCtx]agg
	entrants          [][numCtx]agg
}

// minuteRow is what the metrics need from one traced minute.
type minuteRow struct {
	peak                                  bool // the controller was inside an Algorithm 1 peak
	stepNs, recordNs, keepAliveNs, selfNs int64
	observerNs                            []int64
	observerCalls                         []int
	entrantNs                             []int64
}

// routeStats is the handler wrapper's account of one API route.
type routeStats struct {
	lat   hist
	bytes int64
}

type tracer struct {
	epoch time.Time
	// timerNs is what a time.Now / time.Since pair reads with nothing in
	// between; every timed call is credited that much less, or a per-slot
	// callback of a few nanoseconds would mostly measure the clock.
	timerNs int64
	ctx     atomic.Int32
	ids     atomic.Int64

	policy    *policyDec
	observers []*observerDec
	entrants  []*entrantDec
	flusher   *observerDec // snapshots the minute from inside the window
	pending   minuteCosts

	mu     sync.Mutex // guards everything below
	spans  []span
	routes map[string]*routeStats
	rows   []minuteRow
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), routes: make(map[string]*routeStats), timerNs: 1 << 62}
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		t.timerNs = min(t.timerNs, int64(time.Since(t0)))
	}
	return t
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// took is the time since t0 less the clock's own share.
func (t *tracer) took(t0 time.Time) int64 { return max(0, int64(time.Since(t0))-t.timerNs) }

// hooks wires the decorators into one buildAssembly call, dropping those of
// any earlier build. A nil tracer decorates nothing.
func (t *tracer) hooks() hooks {
	if t == nil {
		return hooks{}
	}
	t.policy, t.observers, t.entrants, t.flusher = nil, nil, nil, nil
	return hooks{
		observer: func(layer string, o telemetry.Observer) telemetry.Observer {
			d := &observerDec{t: t, layer: layer, inner: o}
			t.observers = append(t.observers, d)
			return d.assemble()
		},
		policy: func(p *core.Pulse) cluster.Policy {
			t.policy = &policyDec{t: t, inner: p}
			return t.policy
		},
		entrant: func(e tournament.ShadowEntrant) tournament.ShadowEntrant {
			d := &entrantDec{t: t, inner: e}
			t.entrants = append(t.entrants, d)
			if h, ok := e.(tournament.HindsightEntrant); ok {
				return hindsightDec{d, h}
			}
			return d
		},
	}
}

// snapshot moves the decorators' accumulators into t.pending. It runs inside
// the runtime's write window (from the flusher's ObserveStep), so it cannot
// race a Register's callbacks.
func (t *tracer) snapshot() {
	p := &t.pending
	p.record, p.keepAlive = t.policy.record, t.policy.keepAlive
	p.observers = p.observers[:0]
	for _, d := range t.observers {
		p.observers = append(p.observers, d.acc)
		d.acc = [numCtx]agg{}
	}
	p.entrants = p.entrants[:0]
	for _, d := range t.entrants {
		p.entrants = append(p.entrants, d.acc)
		d.acc = [numCtx]agg{}
	}
}

// endMinute turns the snapshot of the Step that just returned into the
// minute's trace and metrics row. minute is the simulated minute the Step
// closed; the bench timed the Step itself and watched the controller's peak
// counter across it.
func (t *tracer) endMinute(minute int, stepStart, stepEnd time.Time, peak bool) {
	p := &t.pending
	trace := int64(minute)
	newSpan := func(parent int64, name string, start, end int64, calls int) int64 {
		id := t.ids.Add(1)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end, Calls: calls})
		return id
	}
	row := minuteRow{
		peak:          peak,
		stepNs:        int64(stepEnd.Sub(stepStart)),
		recordNs:      p.record[1] - p.record[0],
		keepAliveNs:   p.keepAlive[1] - p.keepAlive[0],
		observerNs:    make([]int64, len(p.observers)),
		observerCalls: make([]int, len(p.observers)),
		entrantNs:     make([]int64, len(p.entrants)),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent [numCtx]int64
	parent[ctxStep] = newSpan(0, ctxSpanName[ctxStep], t.since(stepStart), t.since(stepEnd), 0)
	parent[ctxRecord] = newSpan(parent[ctxStep], ctxSpanName[ctxRecord], p.record[0], p.record[1], 0)
	parent[ctxKeepAlive] = newSpan(parent[ctxStep], ctxSpanName[ctxKeepAlive], p.keepAlive[0], p.keepAlive[1], 0)
	row.selfNs = row.stepNs - row.recordNs - row.keepAliveNs
	for c := barrierCtx(0); c < numCtx; c++ {
		// Entrants run inside the attribution observer's callbacks; hang
		// them under its aggregate for the same context.
		var attribution int64
		for i, d := range t.observers {
			a := &p.observers[i][c]
			if a.calls == 0 {
				continue
			}
			if c == ctxLifecycle && parent[c] == 0 {
				// Registrations since the last Step, traced with it.
				parent[c] = newSpan(0, ctxSpanName[c], a.first, a.first, 0)
			}
			id := newSpan(parent[c], "observer."+d.layer, a.first, a.first+a.ns(), a.calls)
			if d.layer == "attribution" {
				attribution = id
			}
			if c != ctxLifecycle {
				row.observerNs[i] += a.ns()
				row.observerCalls[i] += a.calls
			}
			if c == ctxStep {
				row.selfNs -= a.ns()
			}
		}
		for i, d := range t.entrants {
			a := &p.entrants[i][c]
			if a.calls == 0 {
				continue
			}
			newSpan(attribution, "tournament."+d.inner.Name(), a.first, a.first+a.ns(), a.calls)
			if c != ctxLifecycle {
				row.entrantNs[i] += a.ns()
			}
		}
	}
	t.rows = append(t.rows, row)
}

// route classifies a request for the handler wrapper's per-route account.
func route(r *http.Request) string {
	switch path := r.URL.Path; {
	case path == "/invoke":
		return "invoke"
	case path == "/functions" && r.Method == http.MethodPost:
		return "register"
	case strings.HasPrefix(path, "/functions/") && r.Method == http.MethodDelete:
		return "deregister"
	default:
		return strings.TrimPrefix(path, "/")
	}
}

// countingWriter counts reply bytes on their way out.
type countingWriter struct {
	http.ResponseWriter
	bytes int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return w.ResponseWriter.Write(p)
}

// handler wraps the API: every request is timed into its route's account,
// and a request carrying the trace header also leaves an api.serve span
// under the client span the header names.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		t1 := time.Now()
		name := route(r)
		t.mu.Lock()
		defer t.mu.Unlock()
		rs := t.routes[name]
		if rs == nil {
			rs = &routeStats{}
			t.routes[name] = rs
		}
		rs.lat.record(int64(t1.Sub(t0)))
		rs.bytes += cw.bytes
		if h := r.Header.Get(traceHeader); h != "" {
			// "<trace id>,<client span id>"
			traceID, parentID, _ := strings.Cut(h, ",")
			tr, err1 := strconv.ParseInt(traceID, 10, 64)
			pa, err2 := strconv.ParseInt(parentID, 10, 64)
			if err1 == nil && err2 == nil {
				t.spans = append(t.spans, span{ID: t.ids.Add(1), Parent: pa, Trace: tr, Name: "api.serve." + name, Start: t.since(t0), End: t.since(t1)})
			}
		}
	})
}

// clientSpan records the generator's side of a traced request.
func (t *tracer) clientSpan(id, trace int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Trace: trace, Name: "client.roundtrip", Start: t.since(start), End: t.since(end)})
	t.mu.Unlock()
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// policyDec decorates the controller the runtime drives. It takes the
// concrete *core.Pulse, which has every optional policy interface, and
// forwards them all, so the runtime's type assertions see what they would
// see without it.
type policyDec struct {
	t     *tracer
	inner *core.Pulse

	record, keepAlive [2]int64 // last call's start and end, ns since epoch

	coldNs, coldCalls atomic.Int64 // ColdVariant runs on concurrent invokes
}

var (
	_ cluster.ActiveSetPolicy = (*policyDec)(nil)
	_ cluster.DynamicPolicy   = (*policyDec)(nil)
	_ io.Closer               = (*policyDec)(nil)
)

func (d *policyDec) Name() string { return d.inner.Name() }

func (d *policyDec) window(c barrierCtx, w *[2]int64, call func()) {
	d.t.ctx.Store(int32(c))
	t0 := time.Now()
	call()
	t1 := time.Now()
	d.t.ctx.Store(int32(ctxStep))
	w[0], w[1] = d.t.since(t0), d.t.since(t1)
}

func (d *policyDec) KeepAlive(m int) (out []int) {
	d.window(ctxKeepAlive, &d.keepAlive, func() { out = d.inner.KeepAlive(m) })
	return out
}

func (d *policyDec) RecordInvocations(m int, counts []int) {
	d.window(ctxRecord, &d.record, func() { d.inner.RecordInvocations(m, counts) })
}

func (d *policyDec) RecordInvocationsSparse(m int, counts []int, invoked []int32) {
	d.window(ctxRecord, &d.record, func() { d.inner.RecordInvocationsSparse(m, counts, invoked) })
}

func (d *policyDec) ActiveSlots() []int32 { return d.inner.ActiveSlots() }

func (d *policyDec) ColdVariant(m, fn int) int {
	t0 := time.Now()
	v := d.inner.ColdVariant(m, fn)
	d.coldNs.Add(d.t.took(t0))
	d.coldCalls.Add(1)
	return v
}

func (d *policyDec) RegisterFunction(name string, family int) (int, error) {
	d.t.ctx.Store(int32(ctxLifecycle))
	return d.inner.RegisterFunction(name, family)
}

func (d *policyDec) DeregisterFunction(name string) error {
	d.t.ctx.Store(int32(ctxLifecycle))
	return d.inner.DeregisterFunction(name)
}

func (d *policyDec) Close() error { return d.inner.Close() }

// observerDec decorates one member of the observer chain. assemble returns
// it combined with exactly the optional interfaces the member has, so
// telemetry.WantsSelf — and through it the controller's choice between its
// dense and sparse scans — sees the same chain with and without tracing.
type observerDec struct {
	t     *tracer
	layer string
	inner telemetry.Observer

	acc [numCtx]agg // barrier-side calls, serialized by the write window

	invNs, invCalls atomic.Int64 // ObserveInvocation arrives from every caller
}

func (d *observerDec) assemble() telemetry.Observer {
	self, isSelf := d.inner.(telemetry.SelfObserver)
	life, isLife := d.inner.(telemetry.LifecycleObserver)
	closer, isCloser := d.inner.(io.Closer)
	s, l, c := selfPart{d, self}, lifePart{d, life}, closePart{closer}
	if isSelf {
		d.t.flusher = d // the last one assembled is last in the chain
	}
	switch {
	case isSelf && isLife && isCloser:
		return struct {
			*observerDec
			selfPart
			lifePart
			closePart
		}{d, s, l, c}
	case isSelf && isLife:
		return struct {
			*observerDec
			selfPart
			lifePart
		}{d, s, l}
	case isSelf && isCloser:
		return struct {
			*observerDec
			selfPart
			closePart
		}{d, s, c}
	case isLife && isCloser:
		return struct {
			*observerDec
			lifePart
			closePart
		}{d, l, c}
	case isSelf:
		return struct {
			*observerDec
			selfPart
		}{d, s}
	case isLife:
		return struct {
			*observerDec
			lifePart
		}{d, l}
	case isCloser:
		return struct {
			*observerDec
			closePart
		}{d, c}
	}
	return d
}

// begin and end bracket one barrier-side call timed exactly.
func (d *observerDec) begin() (*agg, time.Time) {
	a := &d.acc[d.t.ctx.Load()]
	t0 := time.Now()
	if a.calls == 0 {
		a.first = d.t.since(t0)
	}
	a.calls++
	return a, t0
}

func (d *observerDec) end(a *agg, t0 time.Time) { a.exactNs += d.t.took(t0) }

func (d *observerDec) ObserveInvocation(s telemetry.InvocationSample) {
	t0 := time.Now()
	d.inner.ObserveInvocation(s)
	d.invNs.Add(d.t.took(t0))
	d.invCalls.Add(1)
}

// ObserveKeepAlive is the per-slot callback. The first one of a minute is
// timed exactly — it is the sample on which a minute-ledger observer rolls
// its minute over, so it costs what no other call does and must not be
// scaled — and of the rest every hotStride-th is.
func (d *observerDec) ObserveKeepAlive(s telemetry.KeepAliveSample) {
	a := &d.acc[d.t.ctx.Load()]
	if a.calls == 0 {
		a, t0 := d.begin()
		d.inner.ObserveKeepAlive(s)
		d.end(a, t0)
		return
	}
	a.calls++
	a.hot++
	if a.hot%hotStride != 0 {
		d.inner.ObserveKeepAlive(s)
		return
	}
	t0 := time.Now()
	d.inner.ObserveKeepAlive(s)
	a.hotNs += d.t.took(t0)
	a.hotSampled++
}

func (d *observerDec) ObserveMinute(s telemetry.MinuteSample) {
	a, t0 := d.begin()
	d.inner.ObserveMinute(s)
	d.end(a, t0)
}

func (d *observerDec) ObserveSchedule(s telemetry.ScheduleSample) {
	a, t0 := d.begin()
	d.inner.ObserveSchedule(s)
	d.end(a, t0)
}

func (d *observerDec) ObservePeak(s telemetry.PeakSample) {
	a, t0 := d.begin()
	d.inner.ObservePeak(s)
	d.end(a, t0)
}

func (d *observerDec) ObserveDowngrade(s telemetry.DowngradeSample) {
	a, t0 := d.begin()
	d.inner.ObserveDowngrade(s)
	d.end(a, t0)
}

type selfPart struct {
	d     *observerDec
	inner telemetry.SelfObserver
}

func (p selfPart) ObserveStep(s telemetry.StepSample) {
	a, t0 := p.d.begin()
	p.inner.ObserveStep(s)
	p.d.end(a, t0)
	if p.d.t.flusher == p.d {
		p.d.t.snapshot()
	}
}

func (p selfPart) ObserveScan(s telemetry.ScanSample) {
	a, t0 := p.d.begin()
	p.inner.ObserveScan(s)
	p.d.end(a, t0)
}

func (p selfPart) ObserveFlush(s telemetry.FlushSample) {
	a, t0 := p.d.begin()
	p.inner.ObserveFlush(s)
	p.d.end(a, t0)
}

type lifePart struct {
	d     *observerDec
	inner telemetry.LifecycleObserver
}

func (p lifePart) ObserveRegister(s telemetry.RegisterSample) {
	a, t0 := p.d.begin()
	p.inner.ObserveRegister(s)
	p.d.end(a, t0)
}

func (p lifePart) ObserveDeregister(s telemetry.DeregisterSample) {
	a, t0 := p.d.begin()
	p.inner.ObserveDeregister(s)
	p.d.end(a, t0)
}

type closePart struct{ inner io.Closer }

func (p closePart) Close() error { return p.inner.Close() }

// entrantDec decorates one tournament entrant. The arena calls KeepAlive and
// Record once per slot per minute under its own lock.
type entrantDec struct {
	t     *tracer
	inner tournament.ShadowEntrant
	acc   [numCtx]agg
}

func (d *entrantDec) Name() string { return d.inner.Name() }

// hot counts a per-slot call and reports whether this one is timed: every
// hotStride-th.
func (d *entrantDec) hot() (*agg, bool) {
	a := &d.acc[d.t.ctx.Load()]
	if a.calls == 0 {
		a.first = d.t.since(time.Now())
	}
	a.calls++
	a.hot++
	return a, a.hot%hotStride == 0
}

func (d *entrantDec) KeepAlive(m, fn int) int {
	a, timed := d.hot()
	if !timed {
		return d.inner.KeepAlive(m, fn)
	}
	t0 := time.Now()
	v := d.inner.KeepAlive(m, fn)
	a.hotNs += d.t.took(t0)
	a.hotSampled++
	return v
}

func (d *entrantDec) Record(m, fn, count int) {
	a, timed := d.hot()
	if !timed {
		d.inner.Record(m, fn, count)
		return
	}
	t0 := time.Now()
	d.inner.Record(m, fn, count)
	a.hotNs += d.t.took(t0)
	a.hotSampled++
}

func (d *entrantDec) exact(call func()) {
	a := &d.acc[d.t.ctx.Load()]
	t0 := time.Now()
	if a.calls == 0 {
		a.first = d.t.since(t0)
	}
	a.calls++
	call()
	a.exactNs += d.t.took(t0)
}

func (d *entrantDec) Register(fn, fam, numVariants int) {
	d.exact(func() { d.inner.Register(fn, fam, numVariants) })
}

func (d *entrantDec) Retire(fn int) { d.exact(func() { d.inner.Retire(fn) }) }

// hindsightDec adds the retroactive call for entrants that have it.
type hindsightDec struct {
	*entrantDec
	hind tournament.HindsightEntrant
}

func (d hindsightDec) HindsightKeepAlive(m, fn int) int { return d.hind.HindsightKeepAlive(m, fn) }
