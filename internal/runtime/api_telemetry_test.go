package runtime

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

func newFixedPolicy(cat *models.Catalog, asg models.Assignment) (cluster.Policy, error) {
	return policy.NewFixed(cat, asg, 10, policy.QualityHighest)
}

// newInstrumentedRuntime builds a live runtime driven by the real PULSE
// controller with a shared telemetry pipeline observing both layers, the
// deployment shape cmd/pulsed assembles.
func newInstrumentedRuntime(t *testing.T, nFunctions int) (*API, *Runtime, *telemetry.Telemetry) {
	t.Helper()
	cat := models.PaperCatalog()
	asg := make(models.Assignment, nFunctions)
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Observer: tel})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Catalog:    cat,
		Assignment: asg,
		Policy:     p,
		Clock:      NewManualClock(time.Unix(0, 0)),
		Observer:   tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	api, err := NewInstrumentedAPI(rt, tel)
	if err != nil {
		t.Fatal(err)
	}
	return api, rt, tel
}

func get(t *testing.T, api *API, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestMetricsMethodNotAllowedIsPlainText(t *testing.T) {
	api, _ := newTestAPI(t)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("405 content type = %q, want text/plain", ct)
	}
	if !strings.Contains(rec.Body.String(), "GET required") {
		t.Errorf("405 body = %q", rec.Body.String())
	}
}

func TestMetricsContentType(t *testing.T) {
	api, _ := newTestAPI(t)
	rec := get(t, api, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("content type = %q", ct)
	}
}

func TestEventsWithoutTelemetry(t *testing.T) {
	api, _ := newTestAPI(t) // no telemetry attached
	for _, path := range []string{"/events", "/decisions"} {
		rec := get(t, api, path)
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s without telemetry = %d, want 404", path, rec.Code)
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s error payload = %q (%v)", path, rec.Body.String(), err)
		}
	}
}

func TestEventsDecisionsMethodNotAllowed(t *testing.T) {
	api, _, _ := newInstrumentedRuntime(t, 3)
	for _, path := range []string{"/events", "/decisions"} {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d", path, rec.Code)
		}
	}
}

func TestEventsBadParams(t *testing.T) {
	api, _, _ := newInstrumentedRuntime(t, 3)
	for _, path := range []string{
		"/events?fn=zap",
		"/events?since=minus",
		"/events?limit=-1",
		"/events?limit=zap",
	} {
		rec := get(t, api, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, rec.Code)
		}
	}
}

// TestInstrumentedAPILiveRuntime is the tentpole acceptance test: a live
// runtime under the real PULSE controller runs several simulated minutes —
// a steady phase that establishes the prior keep-alive memory, then a burst
// phase in which every function goes active, triggering an Algorithm 1 peak
// and Algorithm 2 downgrades — and the whole decision trail is read back
// over /metrics, /events, and /decisions.
func TestInstrumentedAPILiveRuntime(t *testing.T) {
	const nFunctions = 12
	api, rt, tel := newInstrumentedRuntime(t, nFunctions)

	// Phase 1: only function 0 is active; steady one-invocation-per-minute
	// traffic keeps its planned variant alive and stabilizes the prior.
	for m := 0; m < 10; m++ {
		if _, err := rt.Invoke(0); err != nil {
			t.Fatal(err)
		}
		rt.Step()
	}

	// Phase 2: every function goes active at once. The sum of the newly
	// planned keep-alive variants jumps past the prior by more than KM_T,
	// which Algorithm 1 must flag as a peak and Algorithm 2 must flatten.
	sawDowngrade := false
	for m := 0; m < 30 && !sawDowngrade; m++ {
		for fn := 0; fn < nFunctions; fn++ {
			if _, err := rt.Invoke(fn); err != nil {
				t.Fatal(err)
			}
		}
		rt.Step()
		sawDowngrade = len(tel.Events().Select(telemetry.Filter{Kind: telemetry.KindDowngrade})) > 0
	}
	if !sawDowngrade {
		t.Fatal("no downgrade after 30 burst minutes — peak never detected")
	}

	// /metrics: per-function and per-variant labeled series plus the
	// service-time histogram.
	rec := get(t, api, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	metrics := rec.Body.String()
	for _, want := range []string{
		`pulse_function_invocations_total{function="0",variant="`,
		`,start="cold"} `,
		`,start="warm"} `,
		"# TYPE pulse_function_service_seconds histogram",
		`pulse_function_service_seconds_bucket{function="0",le="+Inf"}`,
		`pulse_function_service_seconds_sum{function="0"}`,
		`pulse_function_service_seconds_count{function="0"}`,
		`pulse_function_keepalive_mb{function="0",variant="`,
		"# TYPE pulse_downgrades_total counter",
		"# TYPE pulse_peak_active gauge",
		"pulse_invocations_total", // global scalars still exposed
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The peak episode must be visible: at least one downgrade counted.
	if !strings.Contains(metrics, "pulse_downgrades_total{") {
		t.Error("metrics has no per-function downgrade series")
	}

	// /events: schedule events for function 0 exist and filters apply.
	rec = get(t, api, "/events?kind=schedule&fn=0&limit=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("events = %d", rec.Code)
	}
	var evResp struct {
		Total  uint64            `json:"total"`
		Events []telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evResp); err != nil {
		t.Fatal(err)
	}
	if evResp.Total == 0 || len(evResp.Events) == 0 || len(evResp.Events) > 5 {
		t.Fatalf("events total=%d len=%d", evResp.Total, len(evResp.Events))
	}
	for _, e := range evResp.Events {
		if e.Kind != telemetry.KindSchedule || e.Function != 0 {
			t.Errorf("filter leak: %+v", e)
		}
		if len(e.Plan) == 0 || len(e.Probs) != len(e.Plan) {
			t.Errorf("schedule event without plan: %+v", e)
		}
	}

	// /decisions: the downgrade records carry the full utility breakdown
	// (Ai, Pr, Ip, Uv) and a peak-enter episode exists.
	rec = get(t, api, "/decisions")
	if rec.Code != http.StatusOK {
		t.Fatalf("decisions = %d", rec.Code)
	}
	var dec struct {
		Downgrades []telemetry.Event `json:"downgrades"`
		Peaks      []telemetry.Event `json:"peaks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	if len(dec.Downgrades) == 0 {
		t.Fatal("no downgrades in /decisions")
	}
	for _, d := range dec.Downgrades {
		if d.Kind != telemetry.KindDowngrade {
			t.Errorf("downgrade kind = %q", d.Kind)
		}
		if d.FromVariant <= d.ToVariant {
			t.Errorf("not a downgrade: from %d to %d", d.FromVariant, d.ToVariant)
		}
		if diff := d.Uv - (d.Ai + d.Pr + d.Ip); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Uv %v != Ai %v + Pr %v + Ip %v", d.Uv, d.Ai, d.Pr, d.Ip)
		}
		if d.Ai <= 0 {
			t.Errorf("downgrade with non-positive accuracy impact: %+v", d)
		}
	}
	hasEnter := false
	for _, p := range dec.Peaks {
		if p.Kind == telemetry.KindPeakEnter {
			hasEnter = true
			if p.KaMMB <= p.TargetKaMMB {
				t.Errorf("peak-enter KaM %v not above target %v", p.KaMMB, p.TargetKaMMB)
			}
		}
	}
	if !hasEnter {
		t.Error("no peak-enter episode in /decisions")
	}

	// Raw JSON of /decisions must expose the documented field names.
	raw := rec.Body.String()
	for _, field := range []string{`"ai"`, `"pr"`, `"ip"`, `"uv"`, `"fromVariant"`, `"toVariant"`} {
		if !strings.Contains(raw, field) {
			t.Errorf("decisions JSON missing field %s", field)
		}
	}
}

// TestEventsSinceSeq exercises the since-sequence pagination parameter.
func TestEventsSinceSeq(t *testing.T) {
	api, rt, tel := newInstrumentedRuntime(t, 3)
	for m := 0; m < 3; m++ {
		if _, err := rt.Invoke(0); err != nil {
			t.Fatal(err)
		}
		rt.Step()
	}
	total := tel.Events().Total()
	if total < 2 {
		t.Fatalf("too few events: %d", total)
	}
	last := total - 1 // sequence numbers are 0-based
	rec := get(t, api, fmt.Sprintf("/events?since=%d", last))
	var resp struct {
		Events []telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 1 || resp.Events[0].Seq != last {
		t.Errorf("since=%d returned %d events", last, len(resp.Events))
	}
}

// TestInvokeObserverOverhead asserts the observer seam is free on the hot
// path: Invoke with a no-op observer allocates no more than with none.
func TestInvokeObserverOverhead(t *testing.T) {
	cat, asg := testSetup(t)
	measure := func(obs telemetry.Observer) float64 {
		p, err := newFixedPolicy(cat, asg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Invoke(0); err != nil { // warm the cold path
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := rt.Invoke(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := measure(nil)
	nop := measure(telemetry.Nop{})
	if nop > bare {
		t.Errorf("no-op observer adds allocations on Invoke: %v > %v", nop, bare)
	}
}

func BenchmarkInvoke(b *testing.B) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1, 2}
	none := func(*testing.B) telemetry.Observer { return nil }
	for _, bc := range []struct {
		name string
		obs  func(b *testing.B) telemetry.Observer
		// tracer, when set, attaches a sampled invocation tracer: stride 0
		// is the carry cost every deployment pays, 1024 the sampling cost.
		tracer *provenance.TracerConfig
	}{
		{"uninstrumented", none, nil},
		{"nop", func(*testing.B) telemetry.Observer { return telemetry.Nop{} }, nil},
		{"telemetry", func(b *testing.B) telemetry.Observer {
			tel, err := telemetry.New(telemetry.Config{})
			if err != nil {
				b.Fatal(err)
			}
			return tel
		}, nil},
		{"tracer-off", none, &provenance.TracerConfig{}},
		{"tracer-1in1024", none, &provenance.TracerConfig{Stride: 1024}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p, err := newFixedPolicy(cat, asg)
			if err != nil {
				b.Fatal(err)
			}
			var tracer *provenance.Tracer
			if bc.tracer != nil {
				tracer = provenance.NewTracer(*bc.tracer)
			}
			rt, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Observer: bc.obs(b), Tracer: tracer})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Invoke(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Invoke(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
