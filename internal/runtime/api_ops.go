package runtime

import (
	"net/http"
	goruntime "runtime"
	"time"

	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/provenance"
)

// AttachStream connects the live-event broadcaster to the API, enabling
// GET /stream and GET /dashboard. The broadcaster should be the same
// instance tapped into the telemetry event log and handed to the alert
// engine, so one stream carries decisions, minute rollups, and alerts.
// Attach before serving; nil leaves both endpoints answering 404.
func (a *API) AttachStream(b *alert.Broadcaster) {
	a.stream = b
}

// AttachAlerts connects the alert engine to the API: /healthz reports its
// status, and invocations of deregistered functions feed its
// dereg_invokes metric. The engine must also be attached as Observer to
// the runtime (via telemetry.Multi, after the attribution accountant) to
// see the minute stream. Attach before serving; nil is valid (alerting
// disabled, /healthz says so).
func (a *API) AttachAlerts(e *alert.Engine) {
	a.alerts = e
}

// handleStream serves the SSE event stream (GET /stream).
func (a *API) handleStream(w http.ResponseWriter, r *http.Request) {
	if a.stream == nil {
		writeJSON(w, http.StatusNotFound, apiError{"streaming not enabled"})
		return
	}
	a.stream.ServeHTTP(w, r)
}

// handleDashboard serves the embedded live ops page (GET /dashboard). It
// requires the stream: a dashboard with nothing to watch is a 404, not a
// dead page.
func (a *API) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if a.stream == nil {
		writeJSON(w, http.StatusNotFound, apiError{"streaming not enabled"})
		return
	}
	alert.DashboardHandler().ServeHTTP(w, r)
}

// healthzResponse is the GET /healthz payload.
type healthzResponse struct {
	Status    string  `json:"status"`
	GoVersion string  `json:"goVersion"`
	UptimeSec float64 `json:"uptimeSec"`
	// Mode is the runtime's serving architecture: "epoch" or "serial".
	Mode string `json:"mode"`
	// Minute is the current simulated minute.
	Minute int `json:"minute"`
	// Functions counts every slot ever issued; Active excludes tombstones.
	Functions int `json:"functions"`
	Active    int `json:"active"`
	// Telemetry, Attribution, and Provenance report which optional
	// pipelines are wired.
	Telemetry   bool `json:"telemetry"`
	Attribution bool `json:"attribution"`
	Provenance  bool `json:"provenance"`
	// TournamentEntrants lists the attribution arena's shadow entrants in
	// accounting order (baselines first), so clients — the dashboard's
	// metric picker in particular — can discover savings_vs_<entrant>_usd
	// series. Empty when attribution is off.
	TournamentEntrants []string `json:"tournamentEntrants,omitempty"`
	// Tracer is the sampled-invocation tracer's status (all zeros when no
	// tracer is attached).
	Tracer provenance.TracerStats `json:"tracer"`
	// Stream is the broadcaster's fan-out counters (zeros when disabled).
	Stream alert.BroadcastStats `json:"stream"`
	// Alerts is the rule engine's status (enabled false when disabled).
	Alerts alert.Status `json:"alerts"`
}

// handleHealthz serves the daemon health summary (GET /healthz).
func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET required"})
		return
	}
	var entrants []string
	if a.acct != nil {
		entrants = a.acct.EntrantNames()
	}
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:             "ok",
		GoVersion:          goruntime.Version(),
		UptimeSec:          time.Since(a.started).Seconds(),
		Mode:               a.rt.Mode(),
		Minute:             a.rt.Minute(),
		Functions:          a.rt.NumFunctions(),
		Active:             a.rt.NumActive(),
		Telemetry:          a.tel != nil,
		Attribution:        a.acct != nil,
		Provenance:         a.prov != nil,
		TournamentEntrants: entrants,
		Tracer:             a.tracer.Stats(),
		Stream:             a.stream.Stats(),
		Alerts:             a.alerts.Status(),
	})
}
