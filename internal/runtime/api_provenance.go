package runtime

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/pulse-serverless/pulse/internal/provenance"
)

// AttachProvenance connects the decision provenance recorder to the API,
// enabling GET /why and the step_latency_us / seqlock_retries /timeseries
// metrics. The recorder must be the same instance attached (via
// telemetry.Multi) as Observer to both the controller and the runtime, so
// it sees the full barrier-serialized decision stream. Attach before
// serving; nil leaves /why answering 404.
func (a *API) AttachProvenance(rec *provenance.Recorder) {
	a.prov = rec
}

// whyDefaultN bounds GET /why responses when no n parameter is given.
const whyDefaultN = 16

// handleWhy serves GET /why?fn=<name>: the JSON explanation of the named
// function's recent keep-alive decisions — the Algorithm 1/2 inputs
// (invocation probabilities, peak window, priority rank, memory budget)
// and outputs (chosen variant vs the unconstrained plan). Query
// parameters: fn (function name, or a slot number as a convenience),
// minute (explain one specific minute; a minute the function spent resting
// cold with no plan has no recorded decision and is answered with a
// "resting": true entry), n (last N non-resting decisions, default 16,
// capped at the ring window).
func (a *API) handleWhy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET required"})
		return
	}
	if a.prov == nil {
		writeJSON(w, http.StatusNotFound, apiError{"provenance not enabled"})
		return
	}
	name := r.URL.Query().Get("fn")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, apiError{"fn required (function name)"})
		return
	}
	// Accept a slot number where a name is expected — operators copy slots
	// out of /functions and error messages.
	if _, ok := a.rt.LookupFunction(name); !ok {
		if slot, convErr := strconv.Atoi(name); convErr == nil {
			if n := a.rt.FunctionName(slot); n != "" {
				name = n
			}
		}
	}
	var (
		ex  provenance.Explanation
		err error
	)
	if s := r.URL.Query().Get("minute"); s != "" {
		minute, convErr := strconv.Atoi(s)
		if convErr != nil {
			writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad minute %q", s)})
			return
		}
		ex, err = a.prov.ExplainMinute(name, minute)
	} else {
		n := whyDefaultN
		if s := r.URL.Query().Get("n"); s != "" {
			v, convErr := strconv.Atoi(s)
			if convErr != nil || v <= 0 {
				writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad n %q", s)})
				return
			}
			n = v
		}
		ex, err = a.prov.Explain(name, n)
	}
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// tracesResponse is the GET /traces payload.
type tracesResponse struct {
	provenance.TracerStats
	Traces []provenance.Trace `json:"traces"`
}

// handleTraces serves GET /traces: the retained sampled-invocation spans,
// oldest first, with the sampler's counters. Query parameter: limit (most
// recent N; default everything retained).
func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET required"})
		return
	}
	if a.tracer == nil {
		writeJSON(w, http.StatusNotFound, apiError{"tracing not enabled"})
		return
	}
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad limit %q", s)})
			return
		}
		limit = v
	}
	traces := a.tracer.Snapshot(limit)
	if traces == nil {
		traces = []provenance.Trace{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{TracerStats: a.tracer.Stats(), Traces: traces})
}
