package runtime

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

func TestHealthzJSON(t *testing.T) {
	api, rt := newAttributedAPI(t)
	stream := alert.NewBroadcaster()
	engine, err := alert.NewEngine(alert.Config{Rules: alert.DefaultRules(false)})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	api.AttachStream(stream)
	api.AttachAlerts(engine)

	// A health probe reads; it must not open a write window that stalls
	// every in-flight Invoke.
	seq := rt.seq.Load()
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rt.seq.Load(); got != seq {
		t.Errorf("GET /healthz moved the seqlock %d -> %d", seq, got)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q, want application/json", ct)
	}
	var h healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.GoVersion != goruntime.Version() {
		t.Errorf("goVersion %q, want %q", h.GoVersion, goruntime.Version())
	}
	if h.UptimeSec < 0 {
		t.Errorf("uptimeSec %f negative", h.UptimeSec)
	}
	if h.Minute != rt.Stats().Minute {
		t.Errorf("minute %d, runtime at %d", h.Minute, rt.Stats().Minute)
	}
	if h.Functions != rt.NumFunctions() || h.Active != rt.NumActive() {
		t.Errorf("functions %d/%d, want %d/%d", h.Functions, h.Active, rt.NumFunctions(), rt.NumActive())
	}
	if !h.Attribution {
		t.Error("attribution false with an accountant attached")
	}
	if h.Telemetry {
		t.Error("telemetry true without a pipeline")
	}
	if !h.Alerts.Enabled {
		t.Error("alerts.enabled false with an engine attached")
	}
	if h.Alerts.Rules != len(alert.DefaultRules(false)) {
		t.Errorf("alerts.rules %d, want %d", h.Alerts.Rules, len(alert.DefaultRules(false)))
	}
	if h.Alerts.Firing == nil {
		t.Error("alerts.firing must be [] in JSON, not null")
	}

	// active counts live slots: a tombstoned slot leaves it, not functions.
	if err := rt.Deregister(rt.FunctionName(0)); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	h = healthzResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	live := 0
	for fn := 0; fn < rt.NumFunctions(); fn++ {
		if rt.FunctionActive(fn) {
			live++
		}
	}
	if h.Functions != rt.NumFunctions() || h.Active != live || live != h.Functions-1 {
		t.Errorf("after a deregister: functions %d active %d, want %d and %d live", h.Functions, h.Active, rt.NumFunctions(), live)
	}
}

// Without an engine or broadcaster, /healthz still serves and says both
// surfaces are off — the zero-value path must be nil-safe end to end.
func TestHealthzJSONDisabledSurfaces(t *testing.T) {
	api, _ := newTestAPI(t)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", rec.Code)
	}
	var h healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Alerts.Enabled {
		t.Error("alerts.enabled true without an engine")
	}
	if h.Stream != (alert.BroadcastStats{}) {
		t.Errorf("stream stats %+v without a broadcaster", h.Stream)
	}
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", rec.Code)
	}
}

func TestStreamAndDashboardRequireBroadcaster(t *testing.T) {
	api, _ := newTestAPI(t)
	for _, path := range []string{"/stream", "/dashboard"} {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s unattached = %d, want 404", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "streaming not enabled") {
			t.Errorf("GET %s body %q lacks disabled notice", path, rec.Body.String())
		}
	}
}

func TestDashboardServes(t *testing.T) {
	api, _ := newTestAPI(t)
	api.AttachStream(alert.NewBroadcaster())
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dashboard", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /dashboard = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q, want text/html", ct)
	}
	if !strings.Contains(rec.Body.String(), "PULSE live ops") {
		t.Error("dashboard body lacks the page title")
	}
}

func TestTopJSONFormat(t *testing.T) {
	api, _ := newAttributedAPI(t)

	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/top?format=json&n=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /top?format=json = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q, want application/json", ct)
	}
	var resp topResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rankings) != 3 {
		t.Fatalf("%d rankings, want 3", len(resp.Rankings))
	}
	titles := []string{"savings vs fixed-high", "downgrades", "cold-start risk"}
	for i, rk := range resp.Rankings {
		if rk.Title != titles[i] {
			t.Errorf("ranking %d title %q, want %q", i, rk.Title, titles[i])
		}
		if len(rk.Entries) > 3 {
			t.Errorf("ranking %q has %d entries, n=3", rk.Title, len(rk.Entries))
		}
		for j := 1; j < len(rk.Entries); j++ {
			if rk.Entries[j].Value > rk.Entries[j-1].Value {
				t.Errorf("ranking %q not sorted descending at %d", rk.Title, j)
			}
		}
	}
	if resp.Total.Actual.Invocations == 0 {
		t.Error("total invocations zero after served traffic")
	}

	// The explicit text format is the default rendering.
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/top?format=text", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "PULSE cost attribution") {
		t.Errorf("GET /top?format=text = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/top?format=yaml", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("GET /top?format=yaml = %d, want 400", rec.Code)
	}
}

// Invoking a deregistered function through the API must feed the alert
// engine's dereg_invokes metric, which then fires at the minute barrier.
func TestInvokeDeregisteredFeedsAlerts(t *testing.T) {
	api, rt := newTestAPI(t)
	sink := &alert.CollectorSink{}
	engine, err := alert.NewEngine(alert.Config{
		Rules: []alert.Rule{{Name: "dereg", Metric: alert.MetricDeregInvokes, Op: alert.OpAbove, Threshold: 0, For: 1, Cooldown: 0}},
		Sinks: []alert.Sink{sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	api.AttachAlerts(engine)

	if err := rt.Deregister(rt.FunctionName(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invoke?fn=0", nil))
		if rec.Code != http.StatusGone {
			t.Fatalf("invoke deregistered = %d, want 410", rec.Code)
		}
	}
	// Open minute 0, then close it by opening minute 1.
	engine.ObserveMinute(telemetry.MinuteSample{Minute: 0})
	engine.ObserveMinute(telemetry.MinuteSample{Minute: 1})
	deadline := newDeadline(t)
	var ns []alert.Notification
	for len(ns) == 0 && !deadline() {
		ns = sink.Notifications()
	}
	if len(ns) != 1 || ns[0].Rule != "dereg" || ns[0].State != alert.StateFiring || ns[0].Value != 2 {
		t.Fatalf("notifications %+v, want one dereg firing with value 2", ns)
	}
}

// newDeadline returns a poll-guard closure: false until ~2s have elapsed.
func newDeadline(t *testing.T) func() bool {
	t.Helper()
	n := 0
	return func() bool {
		n++
		if n > 2000 {
			t.Fatal("deadline waiting for notification delivery")
			return true
		}
		time.Sleep(time.Millisecond)
		return false
	}
}
