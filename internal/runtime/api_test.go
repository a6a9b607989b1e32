package runtime

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestAPI(t *testing.T) (*API, *Runtime) {
	t.Helper()
	cat, asg := testSetup(t)
	rt := newFixedRuntime(t, cat, asg)
	api, err := NewInstrumentedAPI(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return api, rt
}

func TestNewAPIValidation(t *testing.T) {
	if _, err := NewInstrumentedAPI(nil, nil); err == nil {
		t.Error("nil runtime accepted")
	}
}

func TestHealthz(t *testing.T) {
	api, _ := newTestAPI(t)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestInvokeEndpoint(t *testing.T) {
	api, _ := newTestAPI(t)

	// Wrong method.
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/invoke?fn=0", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /invoke = %d", rec.Code)
	}
	// Bad fn.
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invoke?fn=zap", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad fn = %d", rec.Code)
	}
	// Unknown fn.
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invoke?fn=99", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown fn = %d", rec.Code)
	}
	// Valid invocation: first is cold.
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invoke?fn=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("invoke = %d: %s", rec.Code, rec.Body.String())
	}
	var inv Invocation
	if err := json.Unmarshal(rec.Body.Bytes(), &inv); err != nil {
		t.Fatal(err)
	}
	if !inv.Cold || inv.Function != 0 || inv.Variant == "" {
		t.Errorf("invocation = %+v", inv)
	}
}

func TestStatsEndpoint(t *testing.T) {
	api, rt := newTestAPI(t)
	if _, err := rt.Invoke(1); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	var got struct {
		Invocations     int
		ColdStarts      int
		MeanAccuracyPct float64
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Invocations != 1 || got.ColdStarts != 1 || got.MeanAccuracyPct <= 0 {
		t.Errorf("stats payload = %+v", got)
	}
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/stats", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats = %d", rec.Code)
	}
}

func TestFunctionsEndpoint(t *testing.T) {
	api, rt := newTestAPI(t)
	// Warm function 0's container via an invocation + step.
	if _, err := rt.Invoke(0); err != nil {
		t.Fatal(err)
	}
	rt.Step()

	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/functions", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("functions = %d", rec.Code)
	}
	var rows []functionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AliveVariant == "" || rows[0].AliveMemMB <= 0 {
		t.Errorf("function 0 should be warm: %+v", rows[0])
	}
	if rows[1].AliveVariant != "" {
		t.Errorf("function 1 should be cold: %+v", rows[1])
	}
	if rows[0].Family == "" || rows[0].Variants == 0 {
		t.Errorf("metadata missing: %+v", rows[0])
	}
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/functions", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /functions = %d", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	api, rt := newTestAPI(t)
	if _, err := rt.Invoke(0); err != nil {
		t.Fatal(err)
	}
	// One render takes one Stats snapshot: a single write window, which
	// moves the seqlock by exactly 2 however many values come from it.
	seq := rt.seq.Load()
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if got := rt.seq.Load() - seq; got != 2 {
		t.Errorf("GET /metrics moved the seqlock by %d, want 2 (one write window)", got)
	}
	out := rec.Body.String()
	for _, s := range []string{
		"pulse_invocations_total 1",
		"pulse_cold_starts_total 1",
		"pulse_warm_starts_total 0",
		"# TYPE pulse_keepalive_memory_mb gauge",
		"pulse_mean_accuracy_pct",
	} {
		if !strings.Contains(out, s) {
			t.Errorf("metrics missing %q:\n%s", s, out)
		}
	}
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d", rec.Code)
	}
}

// End-to-end over a real listener: serve, invoke, read stats.
func TestAPIOverRealServer(t *testing.T) {
	api, _ := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(srv.URL+"/invoke?fn=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke over TCP = %d", resp.StatusCode)
	}
	resp2, err := client.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got struct{ Invocations int }
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Invocations != 1 {
		t.Errorf("invocations over TCP = %d", got.Invocations)
	}
}
