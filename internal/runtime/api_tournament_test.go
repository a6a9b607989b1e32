package runtime

// HTTP surface of the policy tournament: /top?by=policy standings,
// savings_vs_<entrant>_usd timeseries, the /attribution tournament
// section, and entrant discovery through /healthz.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
)

// newTournamentAPI is newAttributedAPI with the packaged entrant roster
// riding the accountant: six entrants (three baselines + mpc, hawkes,
// qlearn) race the live policy.
func newTournamentAPI(t *testing.T) (*API, *Runtime) {
	t.Helper()
	cat, asg := testSetup(t)
	ents, err := roster.Build(roster.Names(), cat, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	acct, err := attribution.New(attribution.Config{Catalog: cat, Assignment: asg, Entrants: ents})
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

func TestTopPolicyStandings(t *testing.T) {
	api, _ := newTournamentAPI(t)

	// Text rendering: every entrant plus the live policy appears.
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/top?by=policy", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /top?by=policy = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/top?by=policy content type %q, want text/plain", ct)
	}
	body := rec.Body.String()
	for _, want := range append([]string{"PULSE policy tournament", "live", "fixed-high", "never", "oracle"}, roster.Names()...) {
		if !strings.Contains(body, want) {
			t.Errorf("/top?by=policy output lacks %q:\n%s", want, body)
		}
	}

	// JSON rendering: the same rows, ranked by cost ascending, exactly one
	// live row with a zero delta.
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/top?by=policy&format=json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /top?by=policy&format=json = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Minute  int `json:"minute"`
		Ranking []struct {
			Name          string  `json:"name"`
			Live          bool    `json:"live"`
			CostUSD       float64 `json:"costUSD"`
			ColdStarts    int     `json:"coldStarts"`
			CostVsLiveUSD float64 `json:"costVsLiveUSD"`
		} `json:"ranking"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Ranking) != 7 { // live + 6 entrants
		t.Fatalf("policy ranking has %d rows, want 7: %+v", len(resp.Ranking), resp.Ranking)
	}
	if !sort.SliceIsSorted(resp.Ranking, func(i, j int) bool {
		return resp.Ranking[i].CostUSD < resp.Ranking[j].CostUSD
	}) {
		t.Errorf("policy ranking not sorted by cost ascending: %+v", resp.Ranking)
	}
	lives := 0
	for _, row := range resp.Ranking {
		if row.Live {
			lives++
			if row.CostVsLiveUSD != 0 {
				t.Errorf("live row has nonzero cost delta %v", row.CostVsLiveUSD)
			}
		}
	}
	if lives != 1 {
		t.Errorf("policy ranking has %d live rows, want 1", lives)
	}

	// Unknown by= is a 400 naming the supported views.
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/top?by=flavor", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("GET /top?by=flavor = %d, want 400", rec.Code)
	}
	if b := rec.Body.String(); !strings.Contains(b, "functions or policy") {
		t.Errorf("bad-by error %q does not name the supported views", b)
	}
}

func TestTimeseriesEntrantSavings(t *testing.T) {
	api, _ := newTournamentAPI(t)
	for _, name := range roster.Names() {
		metric := "savings_vs_" + name + "_usd"
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/timeseries?metric="+metric+"&window=30", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /timeseries?metric=%s = %d: %s", metric, rec.Code, rec.Body.String())
		}
		var resp struct {
			Metric string `json:"metric"`
			Points []struct {
				Minute int     `json:"minute"`
				Value  float64 `json:"value"`
			} `json:"points"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Metric != metric {
			t.Errorf("metric echoed as %q, want %q", resp.Metric, metric)
		}
		if len(resp.Points) == 0 {
			t.Errorf("%s series empty after served traffic", metric)
		}
	}
	// Hourly rollup works for entrant metrics too.
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/timeseries?metric=savings_vs_mpc_usd&res=hour&window=2", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("hourly entrant series = %d: %s", rec.Code, rec.Body.String())
	}
	// An unknown entrant in the pattern is a 400 that lists the attached
	// entrants so the caller can self-correct.
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/timeseries?metric=savings_vs_bogus_usd", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown entrant metric = %d, want 400", rec.Code)
	}
	if b := rec.Body.String(); !strings.Contains(b, "savings_vs_{entrant}_usd") || !strings.Contains(b, "mpc") {
		t.Errorf("unknown-metric error %q does not advertise the entrant pattern", b)
	}
}

func TestAttributionTournamentSection(t *testing.T) {
	// With extras attached, /attribution gains the tournament section in
	// accounting order.
	api, _ := newTournamentAPI(t)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/attribution", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /attribution = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Minute     int `json:"minute"`
		Tournament *struct {
			Entrants []struct {
				Name  string `json:"name"`
				Total struct {
					Invocations int `json:"invocations"`
				} `json:"total"`
			} `json:"entrants"`
		} `json:"tournament"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tournament == nil {
		t.Fatal("/attribution has no tournament section with entrants attached")
	}
	want := append([]string{attribution.BaselineFixedHigh, attribution.BaselineNever, attribution.BaselineOracle}, roster.Names()...)
	if len(resp.Tournament.Entrants) != len(want) {
		t.Fatalf("tournament section has %d entrants, want %d", len(resp.Tournament.Entrants), len(want))
	}
	for i, e := range resp.Tournament.Entrants {
		if e.Name != want[i] {
			t.Errorf("tournament entrant %d = %q, want %q", i, e.Name, want[i])
		}
	}

	// The classic accountant — baselines only — keeps the classic payload.
	plain, _ := newAttributedAPI(t)
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/attribution", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /attribution (plain) = %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), `"tournament"`) {
		t.Error("baseline-only /attribution grew a tournament section")
	}
}

func TestHealthzTournamentEntrants(t *testing.T) {
	api, _ := newTournamentAPI(t)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", rec.Code)
	}
	var resp struct {
		TournamentEntrants []string `json:"tournamentEntrants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := append([]string{attribution.BaselineFixedHigh, attribution.BaselineNever, attribution.BaselineOracle}, roster.Names()...)
	if len(resp.TournamentEntrants) != len(want) {
		t.Fatalf("healthz entrants %v, want %v", resp.TournamentEntrants, want)
	}
	for i, name := range resp.TournamentEntrants {
		if name != want[i] {
			t.Errorf("healthz entrant %d = %q, want %q", i, name, want[i])
		}
	}
	// Without attribution the field is omitted entirely.
	plain, _ := newTestAPI(t)
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if strings.Contains(rec.Body.String(), "tournamentEntrants") {
		t.Error("healthz advertises tournament entrants without attribution")
	}
}
