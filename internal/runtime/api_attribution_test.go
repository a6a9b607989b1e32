package runtime

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// newAttributedAPI builds a runtime with an attribution accountant
// attached as its observer and to its API, plus some served traffic.
func newAttributedAPI(t *testing.T) (*API, *Runtime) {
	t.Helper()
	cat, asg := testSetup(t)
	acct, err := attribution.New(attribution.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Catalog: cat, Assignment: asg, Policy: p,
		Clock: NewManualClock(time.Unix(0, 0)), Observer: acct,
	})
	if err != nil {
		t.Fatal(err)
	}
	api, err := NewInstrumentedAPI(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	api.AttachAttribution(acct)
	// Serve a few minutes of traffic so the report has content.
	for m := 0; m < 15; m++ {
		if m%3 == 0 {
			for fn := 0; fn < rt.NumFunctions(); fn++ {
				if _, err := rt.Invoke(fn); err != nil {
					t.Fatal(err)
				}
			}
		}
		rt.Step()
	}
	return api, rt
}

func TestAttributionEndpointsDisabled(t *testing.T) {
	api, _ := newTestAPI(t) // no accountant attached
	for _, path := range []string{"/attribution", "/timeseries?metric=invocations", "/top"} {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s without attribution = %d, want 404", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "attribution not enabled") {
			t.Errorf("GET %s body %q lacks disabled notice", path, rec.Body.String())
		}
	}
	// Wrong method takes precedence over the 404.
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/attribution", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /attribution = %d, want 405", rec.Code)
	}
}

func TestAttributionEndpoint(t *testing.T) {
	api, rt := newAttributedAPI(t)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/attribution", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /attribution = %d: %s", rec.Code, rec.Body.String())
	}
	var rep attribution.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Functions) != rt.NumFunctions() {
		t.Errorf("report has %d functions, want %d", len(rep.Functions), rt.NumFunctions())
	}
	st := rt.Stats()
	if rep.Total.Actual.Invocations != st.Invocations {
		t.Errorf("report invocations %d, runtime served %d", rep.Total.Actual.Invocations, st.Invocations)
	}
	if rep.Total.Actual.ColdStarts != st.ColdStarts {
		t.Errorf("report colds %d, runtime %d", rep.Total.Actual.ColdStarts, st.ColdStarts)
	}
}

func TestTimeseriesEndpoint(t *testing.T) {
	api, _ := newAttributedAPI(t)

	// Missing/unknown metric.
	for _, q := range []string{"", "?metric=bogus"} {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/timeseries"+q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET /timeseries%s = %d, want 400", q, rec.Code)
		}
	}
	// Bad window and bad resolution.
	for _, q := range []string{"?metric=invocations&window=0", "?metric=invocations&res=day"} {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/timeseries"+q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET /timeseries%s = %d, want 400", q, rec.Code)
		}
	}
	// Every advertised metric serves a valid series.
	for _, name := range attribution.MetricNames() {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/timeseries?metric="+name+"&window=30", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /timeseries?metric=%s = %d: %s", name, rec.Code, rec.Body.String())
		}
		var resp struct {
			Metric     string              `json:"metric"`
			Window     int                 `json:"window"`
			Resolution string              `json:"resolution"`
			Points     []attribution.Point `json:"points"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Metric != name || resp.Window != 30 || resp.Resolution != "minute" {
			t.Errorf("metric %s: response header %+v", name, resp)
		}
		if name == "invocations" && len(resp.Points) == 0 {
			t.Error("invocations series is empty after served traffic")
		}
	}
	// Hourly rollup resolution.
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/timeseries?metric=cost_actual_usd&res=hour&window=2", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("hourly timeseries = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestTopEndpoint(t *testing.T) {
	api, _ := newAttributedAPI(t)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/top?n=2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /top = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/top content type %q, want text/plain", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"PULSE cost attribution",
		"vs fixed-high",
		"top savings vs fixed-high",
		"top downgrades",
		"top cold-start risk",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/top output lacks %q:\n%s", want, body)
		}
	}
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/top?n=zap", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("GET /top?n=zap = %d, want 400", rec.Code)
	}
}

// Every route in Endpoints() must actually be served by the mux (no 404),
// and the three attribution routes must flip on when an accountant is
// attached.
func TestEndpointsTableMatchesMux(t *testing.T) {
	api, _ := newAttributedAPI(t)
	api.AttachStream(alert.NewBroadcaster()) // /stream and /dashboard require it
	seen := map[string]bool{}
	for _, ep := range Endpoints() {
		key := ep.Method + " " + ep.Path
		if seen[key] {
			t.Errorf("duplicate endpoint %s", key)
		}
		seen[key] = true
		target := ep.Path
		var body io.Reader
		switch {
		case ep.Path == "/invoke":
			target += "?fn=0"
		case ep.Path == "/timeseries":
			target += "?metric=invocations"
		case ep.Method == http.MethodPost && ep.Path == "/functions":
			body = strings.NewReader(`{"name":"table-test-fn","family":0}`)
		case ep.Path == "/functions/{name}":
			target = "/functions/table-test-fn" // registered by the POST row above
		}
		req := httptest.NewRequest(ep.Method, target, body)
		if ep.Path == "/stream" {
			// The SSE handler streams until the client goes away; a
			// pre-canceled context makes it return after the handshake.
			ctx, cancel := context.WithCancel(req.Context())
			cancel()
			req = req.WithContext(ctx)
		}
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		gated := map[string]bool{"/events": true, "/decisions": true, "/why": true, "/traces": true}
		if rec.Code == http.StatusNotFound && !gated[ep.Path] {
			t.Errorf("%s %s = 404: endpoint listed but not served", ep.Method, ep.Path)
		}
		if rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("%s %s = 405: Endpoints() advertises the wrong method", ep.Method, ep.Path)
		}
	}
	// /events and /decisions require telemetry; with it attached they
	// serve too, so the full table is reachable.
	cat, asg := testSetup(t)
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Observer: tel,
		Tracer: provenance.NewTracer(provenance.TracerConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	tapi, err := NewInstrumentedAPI(rt, tel)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/events", "/decisions"} {
		rec := httptest.NewRecorder()
		tapi.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s with telemetry = %d, want 200", path, rec.Code)
		}
	}
	// Likewise /why and /traces: gated on their pipelines, served once the
	// recorder is attached and the runtime carries a tracer.
	prov, err := provenance.NewRecorder(provenance.RecorderConfig{
		Catalog: cat, Assignment: asg, Names: identity.DefaultNames(len(asg)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tapi.AttachProvenance(prov)
	for _, target := range []string{"/why?fn=fn-0", "/traces"} {
		rec := httptest.NewRecorder()
		tapi.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s with provenance attached = %d, want 200", target, rec.Code)
		}
	}
}
