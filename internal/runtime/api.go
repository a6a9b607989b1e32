package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// API exposes a Runtime over HTTP — the integration surface an
// OpenWhisk/Knative operator would script against. Endpoints() is the
// authoritative list; in summary:
//
//	POST /invoke?fn=N           run one invocation, returns the Invocation JSON
//	GET  /stats                 runtime counters
//	GET  /functions             registered functions, their models and warm state
//	POST /functions             register a function online (JSON {"name","family"})
//	DELETE /functions/{name}    deregister the named function (slot tombstoned)
//	GET  /metrics          Prometheus text exposition (labeled series when instrumented)
//	GET  /events           decision event log (requires telemetry)
//	GET  /decisions        Algorithm 1/2 audit: downgrades with Uv = Ai+Pr+Ip, peak episodes
//	GET  /attribution      per-function counterfactual savings vs shadow baselines (requires attribution)
//	GET  /timeseries       per-minute attribution series for one metric, incl. savings_vs_<entrant>_usd (requires attribution)
//	GET  /top              function ranking, or ?by=policy tournament standings; text or ?format=json (requires attribution)
//	GET  /why              decision provenance: why a function's variant was chosen (requires provenance)
//	GET  /traces           sampled invocation spans with serving-path cost (requires tracing)
//	GET  /stream           live Server-Sent Events: decisions, minute rollups, alerts (requires streaming)
//	GET  /dashboard        embedded single-page live ops dashboard (requires streaming)
//	GET  /healthz          daemon health JSON: uptime, mode, population, minute, alert status
type API struct {
	rt         *Runtime
	tel        *telemetry.Telemetry
	acct       *attribution.Accountant
	stream     *alert.Broadcaster
	alerts     *alert.Engine
	prov       *provenance.Recorder
	tracer     *provenance.Tracer
	reg        *telemetry.Registry
	mux        *http.ServeMux
	registered map[string]bool // paths wired into the mux (multi-verb paths appear once)
	started    time.Time
}

// Endpoint describes one API route, for documentation surfaces and the
// tests that hold them in sync with the mux.
type Endpoint struct {
	Method string
	Path   string
	Doc    string
}

// Endpoints returns every route the API serves, in registration order.
// This is the single source of truth the mux is built from; cmd/pulsed's
// package comment is asserted against it.
func Endpoints() []Endpoint {
	return []Endpoint{
		{http.MethodPost, "/invoke", "run one invocation (?fn=N), returns the Invocation JSON"},
		{http.MethodGet, "/stats", "runtime counters"},
		{http.MethodGet, "/functions", "registered functions, their models and warm state"},
		{http.MethodPost, "/functions", "register a function online (JSON {\"name\",\"family\"}), returns its slot"},
		{http.MethodDelete, "/functions/{name}", "deregister the named function; its slot is tombstoned, later invokes return 410"},
		{http.MethodGet, "/metrics", "Prometheus text exposition (labeled series when instrumented)"},
		{http.MethodGet, "/events", "decision event log (requires telemetry)"},
		{http.MethodGet, "/decisions", "Algorithm 1/2 audit: downgrades with Uv = Ai+Pr+Ip, peak episodes"},
		{http.MethodGet, "/attribution", "per-function counterfactual savings vs shadow baselines (requires attribution)"},
		{http.MethodGet, "/timeseries", "attribution series for one metric, incl. savings_vs_<entrant>_usd (?metric=&window=&res=; requires attribution)"},
		{http.MethodGet, "/top", "ranking by savings, downgrades, cold-start risk — or ?by=policy entrant standings; text or ?format=json (requires attribution)"},
		{http.MethodGet, "/why", "decision provenance for one function (?fn=<name>&minute=M&n=N; requires provenance)"},
		{http.MethodGet, "/traces", "sampled invocation spans: minute, variant, stripe, seqlock retries, latency (requires tracing)"},
		{http.MethodGet, "/stream", "live Server-Sent Events: decision log, minute rollups, alert transitions (requires streaming)"},
		{http.MethodGet, "/dashboard", "embedded single-page live ops dashboard (requires streaming)"},
		{http.MethodGet, "/healthz", "daemon health JSON: uptime, go version, population, minute, alert-engine status"},
	}
}

// NewInstrumentedAPI wraps a runtime and its telemetry pipeline in an HTTP
// handler. The telemetry instance should be the same one attached to the
// runtime (and controller) as Observer, so /metrics exposes the labeled
// per-function/per-variant series and /events and /decisions serve the
// decision log. tel may be nil.
func NewInstrumentedAPI(rt *Runtime, tel *telemetry.Telemetry) (*API, error) {
	if rt == nil {
		return nil, fmt.Errorf("runtime: nil runtime")
	}
	reg := telemetry.NewRegistry()
	if tel != nil {
		reg = tel.Registry()
	}
	if err := registerStatsMetrics(reg, rt); err != nil {
		return nil, err
	}
	a := &API{rt: rt, tel: tel, tracer: rt.Tracer(), reg: reg, mux: http.NewServeMux(), started: time.Now()}
	// One handler per path; a path serving several verbs (GET and POST
	// /functions) dispatches on the method inside its handler, so it appears
	// once here and once in the mux, but once per verb in Endpoints().
	handlers := map[string]http.HandlerFunc{
		"/invoke":           a.handleInvoke,
		"/stats":            a.handleStats,
		"/functions":        a.handleFunctions,
		"/functions/{name}": a.handleFunctionByName,
		"/metrics":          a.handleMetrics,
		"/events":           a.handleEvents,
		"/decisions":        a.handleDecisions,
		"/attribution":      a.handleAttribution,
		"/timeseries":       a.handleTimeseries,
		"/top":              a.handleTop,
		"/why":              a.handleWhy,
		"/traces":           a.handleTraces,
		"/stream":           a.handleStream,
		"/dashboard":        a.handleDashboard,
		"/healthz":          a.handleHealthz,
	}
	for _, ep := range Endpoints() {
		h, ok := handlers[ep.Path]
		if !ok {
			if _, registered := a.registered[ep.Path]; registered {
				continue // another verb of an already-wired path
			}
			return nil, fmt.Errorf("runtime: endpoint %s has no handler", ep.Path)
		}
		a.mux.HandleFunc(ep.Path, h)
		if a.registered == nil {
			a.registered = make(map[string]bool)
		}
		a.registered[ep.Path] = true
		delete(handlers, ep.Path)
	}
	if len(handlers) != 0 {
		return nil, fmt.Errorf("runtime: %d handlers missing from Endpoints()", len(handlers))
	}
	return a, nil
}

// registerStatsMetrics bridges the runtime's global counters into the
// registry as scrape-time funcs. Stats() opens a population-wide write
// window, so a render takes it once: the registry renders families in
// registration order, and the first of these funcs snapshots Stats for the
// seven after it. A scrape racing another may take some of the eight values
// from the other's snapshot.
func registerStatsMetrics(reg *telemetry.Registry, rt *Runtime) error {
	type metric struct {
		name, help string
		counter    bool
		value      func(Stats) float64
	}
	var snap atomic.Pointer[Stats]
	for i, m := range []metric{
		{"pulse_invocations_total", "Invocations served.", true, func(s Stats) float64 { return float64(s.Invocations) }},
		{"pulse_warm_starts_total", "Invocations served warm.", true, func(s Stats) float64 { return float64(s.WarmStarts) }},
		{"pulse_cold_starts_total", "Invocations served cold.", true, func(s Stats) float64 { return float64(s.ColdStarts) }},
		{"pulse_service_seconds_total", "Modeled service time delivered.", true, func(s Stats) float64 { return s.TotalServiceSec }},
		{"pulse_keepalive_cost_usd_total", "Accumulated keep-alive cost.", true, func(s Stats) float64 { return s.KeepAliveCostUSD }},
		{"pulse_keepalive_memory_mb", "Keep-alive memory this minute.", false, func(s Stats) float64 { return s.CurrentKaMMB }},
		{"pulse_simulated_minute", "Current simulated minute.", false, func(s Stats) float64 { return float64(s.Minute) }},
		{"pulse_mean_accuracy_pct", "Mean accuracy delivered per invocation.", false, func(s Stats) float64 { return s.MeanAccuracyPct() }},
	} {
		value := m.value
		fn := func() float64 { return value(*snap.Load()) }
		if i == 0 {
			fn = func() float64 {
				s := rt.Stats()
				snap.Store(&s)
				return value(s)
			}
		}
		var err error
		if m.counter {
			err = reg.NewCounterFunc(m.name, m.help, fn)
		} else {
			err = reg.NewGaugeFunc(m.name, m.help, fn)
		}
		if err != nil {
			return err
		}
	}
	// Hot-path self-observability counters live on the runtime as atomics
	// (they are bumped on the invocation path); expose them as scrape-time
	// funcs so /metrics carries them without double registration against a
	// shared Telemetry registry.
	if err := reg.NewCounterFunc("pulse_seqlock_retries_total",
		"Invoke fast-path seqlock retries (epoch mode only).",
		func() float64 { return float64(rt.SeqlockRetries()) }); err != nil {
		return err
	}
	if err := reg.NewCounterFunc("pulse_stripe_contention_total",
		"Invoke stripe-lock acquisitions that found the stripe held.",
		func() float64 { return float64(rt.StripeContention()) }); err != nil {
		return err
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (a *API) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"POST required"})
		return
	}
	fnStr := r.URL.Query().Get("fn")
	fn, err := strconv.Atoi(fnStr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad fn %q", fnStr)})
		return
	}
	inv, err := a.rt.Invoke(fn)
	if err != nil {
		// A closed runtime is a lifecycle condition (the daemon is
		// draining), not a bad request. A deregistered function is a client
		// error — the resource is gone, so 410, never a 5xx or a panic.
		status := http.StatusNotFound
		switch {
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrDeregistered):
			status = http.StatusGone
			// Feed the alert engine's dereg_invokes metric: clients still
			// hitting a deleted function is exactly the regression the rule
			// pages on. Nil-safe when alerting is off.
			a.alerts.RecordDeregisteredInvoke()
		}
		writeJSON(w, status, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, inv)
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET required"})
		return
	}
	s := a.rt.Stats()
	writeJSON(w, http.StatusOK, struct {
		Stats
		MeanAccuracyPct float64 `json:"MeanAccuracyPct"`
	}{s, s.MeanAccuracyPct()})
}

// handleMetrics renders the registry in the Prometheus text exposition
// format. Errors are plain text, matching the endpoint's content type.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = a.reg.WritePrometheus(w)
}

// eventsResponse is the GET /events payload.
type eventsResponse struct {
	// Total counts every event ever appended; events older than the ring
	// capacity have been evicted (use a JSONL sink for a full trail).
	Total  uint64            `json:"total"`
	Events []telemetry.Event `json:"events"`
}

// handleEvents serves the decision log. Query parameters: kind (schedule,
// peak_enter, peak_exit, downgrade, minute), fn (function index), since
// (minimum sequence number), limit (most recent N; default 256).
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET required"})
		return
	}
	if a.tel == nil {
		writeJSON(w, http.StatusNotFound, apiError{"telemetry not enabled"})
		return
	}
	f := telemetry.Filter{Kind: r.URL.Query().Get("kind"), Limit: 256}
	if s := r.URL.Query().Get("fn"); s != "" {
		fn, err := strconv.Atoi(s)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad fn %q", s)})
			return
		}
		f.HasFunction, f.Function = true, fn
	}
	if s := r.URL.Query().Get("since"); s != "" {
		seq, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad since %q", s)})
			return
		}
		f.SinceSeq = seq
	}
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad limit %q", s)})
			return
		}
		f.Limit = n
	}
	log := a.tel.Events()
	events := log.Select(f)
	if events == nil {
		events = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, eventsResponse{Total: log.Total(), Events: events})
}

// decisionsResponse is the GET /decisions payload: the controller-decision
// audit — every buffered Algorithm 2 downgrade with its full utility
// breakdown, and the Algorithm 1 peak episodes that triggered them.
type decisionsResponse struct {
	Downgrades []telemetry.Event `json:"downgrades"`
	Peaks      []telemetry.Event `json:"peaks"`
}

func (a *API) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET required"})
		return
	}
	if a.tel == nil {
		writeJSON(w, http.StatusNotFound, apiError{"telemetry not enabled"})
		return
	}
	log := a.tel.Events()
	resp := decisionsResponse{
		Downgrades: log.Select(telemetry.Filter{Kind: telemetry.KindDowngrade}),
		Peaks:      log.Select(telemetry.Filter{Kind: telemetry.KindPeakEnter}),
	}
	resp.Peaks = append(resp.Peaks, log.Select(telemetry.Filter{Kind: telemetry.KindPeakExit})...)
	if resp.Downgrades == nil {
		resp.Downgrades = []telemetry.Event{}
	}
	if resp.Peaks == nil {
		resp.Peaks = []telemetry.Event{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// functionInfo is one row of GET /functions.
type functionInfo struct {
	Function     int     `json:"function"`
	Name         string  `json:"name"`
	Active       bool    `json:"active"` // false: slot tombstoned by DELETE
	Family       string  `json:"family"`
	Task         string  `json:"task"`
	Variants     int     `json:"variants"`
	AliveVariant string  `json:"aliveVariant"` // "" when cold
	AliveMemMB   float64 `json:"aliveMemMB"`
}

// handleFunctions serves the collection: GET lists every slot ever issued
// (tombstones included, marked inactive), POST registers a new function.
func (a *API) handleFunctions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		a.handleFunctionsList(w)
	case http.MethodPost:
		a.handleFunctionsRegister(w, r)
	default:
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET or POST required"})
	}
}

func (a *API) handleFunctionsList(w http.ResponseWriter) {
	out := make([]functionInfo, a.rt.NumFunctions())
	for fn := range out {
		fam, err := a.rt.FamilyOf(fn)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
			return
		}
		info := functionInfo{
			Function: fn,
			Name:     a.rt.FunctionName(fn),
			Active:   a.rt.FunctionActive(fn),
			Family:   fam.Name,
			Task:     fam.Task,
			Variants: fam.NumVariants(),
		}
		vi, err := a.rt.AliveVariant(fn)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
			return
		}
		if vi != cluster.NoVariant {
			info.AliveVariant = fam.Variants[vi].Name
			info.AliveMemMB = fam.Variants[vi].MemoryMB
		}
		out[fn] = info
	}
	writeJSON(w, http.StatusOK, out)
}

// registerRequest is the POST /functions body.
type registerRequest struct {
	Name   string `json:"name"`
	Family int    `json:"family"`
}

// registerResponse is the POST /functions reply.
type registerResponse struct {
	Function int    `json:"function"`
	Name     string `json:"name"`
	Family   int    `json:"family"`
}

func (a *API) handleFunctionsRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad body: %v", err)})
		return
	}
	slot, err := a.rt.Register(req.Name, req.Family)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, registerResponse{Function: slot, Name: req.Name, Family: req.Family})
}

// handleFunctionByName serves DELETE /functions/{name}: online
// deregistration. The slot is tombstoned, never reused; invoking it
// afterwards returns 410 Gone.
func (a *API) handleFunctionByName(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"DELETE required"})
		return
	}
	name := r.PathValue("name")
	if err := a.rt.Deregister(name); err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrUnknownFunction):
			status = http.StatusNotFound
		}
		writeJSON(w, status, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deregistered": name})
}
