package runtime

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/provenance"
)

// newTracedAPI serves a fixed-policy runtime whose tracer records every
// Invoke (stride 1), after invokes calls to function 0.
func newTracedAPI(t *testing.T, invokes int) *API {
	t.Helper()
	cat, asg := testSetup(t)
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)),
		Tracer: provenance.NewTracer(provenance.TracerConfig{Stride: 1})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	for i := 0; i < invokes; i++ {
		if _, err := rt.Invoke(0); err != nil {
			t.Fatal(err)
		}
	}
	api, err := NewInstrumentedAPI(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return api
}

// TestTracesEndpoint checks GET /traces: the retained spans come oldest
// first with the sampler's counters, limit keeps the most recent N, and a
// bad limit or method is refused.
func TestTracesEndpoint(t *testing.T) {
	const invokes = 4
	api := newTracedAPI(t, invokes)
	for _, c := range []struct {
		name, method, target string
		wantCode             int
		wantSeqs             []uint64
	}{
		{"all retained", http.MethodGet, "/traces", http.StatusOK, []uint64{1, 2, 3, 4}},
		{"limit keeps the most recent", http.MethodGet, "/traces?limit=2", http.StatusOK, []uint64{3, 4}},
		{"limit zero returns everything", http.MethodGet, "/traces?limit=0", http.StatusOK, []uint64{1, 2, 3, 4}},
		{"limit beyond retained", http.MethodGet, "/traces?limit=100", http.StatusOK, []uint64{1, 2, 3, 4}},
		{"negative limit", http.MethodGet, "/traces?limit=-1", http.StatusBadRequest, nil},
		{"non-numeric limit", http.MethodGet, "/traces?limit=all", http.StatusBadRequest, nil},
		{"post", http.MethodPost, "/traces", http.StatusMethodNotAllowed, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, nil))
			if rec.Code != c.wantCode {
				t.Fatalf("%s %s = %d, want %d: %s", c.method, c.target, rec.Code, c.wantCode, rec.Body)
			}
			if c.wantCode != http.StatusOK {
				return
			}
			var got tracesResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if !got.Enabled || got.Stride != 1 || got.Attempts != invokes || got.Sampled != invokes {
				t.Errorf("tracer stats = %+v, want enabled, stride 1, %d attempts and samples", got.TracerStats, invokes)
			}
			if len(got.Traces) != len(c.wantSeqs) {
				t.Fatalf("got %d traces, want %d", len(got.Traces), len(c.wantSeqs))
			}
			for i, tr := range got.Traces {
				if tr.Seq != c.wantSeqs[i] || tr.Function != 0 {
					t.Errorf("trace %d = seq %d fn %d, want seq %d fn 0", i, tr.Seq, tr.Function, c.wantSeqs[i])
				}
			}
		})
	}
}

// An enabled tracer that has sampled nothing serves an empty list, not
// null, so clients can range over it unconditionally.
func TestTracesEndpointEmpty(t *testing.T) {
	api := newTracedAPI(t, 0)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /traces = %d, want 200", rec.Code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if got := string(raw["traces"]); got != "[]" {
		t.Errorf(`"traces" = %s, want []`, got)
	}
}

// Without a tracer on the runtime, /traces is not served.
func TestTracesEndpointUntraced(t *testing.T) {
	cat, asg := testSetup(t)
	api, err := NewInstrumentedAPI(newFixedRuntime(t, cat, asg), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /traces without a tracer = %d, want 404", rec.Code)
	}
}
