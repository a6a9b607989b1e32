package main

// metricDef names one metric of the benchmark. The two tables below are the
// Go side of BENCHMARK.json; a test keeps the file and the tables equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"hot12", "pulsed with default flags and its 12 built-in functions: net/http, handleInvoke and JSON encoding do nearly all the work, the minute step none; a step or observer change must show no change here"},
	{"fleet10k", "pulsed with attribution, alerts and a 3-entrant tournament over 10 012 functions: every 100 ms the dense step and full observer chain hold the write window, so callers see the barrier"},
	{"opsmix", "same daemon at 2 012 functions with one connection invoking and one scraping /metrics, /top, /attribution, /why and registering/deregistering: reads and slot-table writes beside invokes"},
	{"scale100k", "the same controller, observer chain and runtime in process at 100 000 functions, stepped by the bench with a fixed invocation schedule checked bit for bit against an observer-less serial oracle"},
}

// endToEnd is what a caller or operator of the system sees. Every workload
// reports every one of them; README.md says what each means on each
// workload and how each bound was chosen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"invoke_rps", "req/s", "higher", 0.15},
	{"invoke_p50_us", "us", "lower", 0.10},
	{"cpu_us_per_req", "us", "lower", 0.15},
	{"daemon_rss_mb", "MB", "lower", 0.20},
	{"bytes_per_fn", "B", "lower", 0.20},
}

func endToEndIndex(name string) int {
	for i, d := range endToEnd {
		if d.Name == name {
			return i
		}
	}
	return len(endToEnd)
}

// perLayer is what the traced run attributes to single layers, named after
// this repo's modules. They carry no bound.
var perLayer = []metricDef{
	// cmd/pulsed + net/http
	{Name: "pulsed.http_self_us", Unit: "us", Better: "lower"},
	{Name: "pulsed.resp_bytes", Unit: "B", Better: "lower"},
	// internal/runtime API
	{Name: "api.invoke_serve_us", Unit: "us", Better: "lower"},
	{Name: "api.invoke_self_us", Unit: "us", Better: "lower"},
	{Name: "api.invoke_allocs", Unit: "count", Better: "lower"},
	{Name: "api.metrics_serve_ms", Unit: "ms", Better: "lower"},
	{Name: "api.attribution_serve_ms", Unit: "ms", Better: "lower"},
	{Name: "api.top_serve_ms", Unit: "ms", Better: "lower"},
	{Name: "api.why_serve_ms", Unit: "ms", Better: "lower"},
	{Name: "api.metrics_bytes", Unit: "B", Better: "lower"},
	{Name: "api.attribution_bytes", Unit: "B", Better: "lower"},
	{Name: "api.register_us", Unit: "us", Better: "lower"},
	{Name: "api.deregister_us", Unit: "us", Better: "lower"},
	// internal/runtime Runtime
	{Name: "runtime.invoke_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.invoke_self_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.invoke_allocs", Unit: "count", Better: "lower"},
	{Name: "runtime.step_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.step_self_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.step_idle_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.step_idle_allocs", Unit: "count", Better: "lower"},
	{Name: "runtime.seqlock_retries_per_step", Unit: "count", Better: "lower"},
	{Name: "runtime.stripe_contention_per_kinv", Unit: "count", Better: "lower"},
	{Name: "runtime.stall_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "runtime.register_us", Unit: "us", Better: "lower"},
	{Name: "runtime.bytes_per_fn", Unit: "B", Better: "lower"},
	// internal/core
	{Name: "core.record_ms", Unit: "ms", Better: "lower"},
	{Name: "core.keepalive_ms", Unit: "ms", Better: "lower"},
	{Name: "core.keepalive_peak_ms", Unit: "ms", Better: "lower"},
	{Name: "core.flatten_ms", Unit: "ms", Better: "lower"},
	{Name: "core.probabilities_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cold_variant_ns", Unit: "ns", Better: "lower"},
	{Name: "core.peak_minutes", Unit: "count", Better: "lower"},
	{Name: "core.downgrades_per_peak", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_fn", Unit: "B", Better: "lower"},
	// observer chain
	{Name: "observer.telemetry.invocation_ns", Unit: "ns", Better: "lower"},
	{Name: "observer.telemetry.step_ms", Unit: "ms", Better: "lower"},
	{Name: "observer.telemetry.samples_per_step", Unit: "count", Better: "lower"},
	{Name: "observer.telemetry.bytes_per_fn", Unit: "B", Better: "lower"},
	{Name: "observer.attribution.invocation_ns", Unit: "ns", Better: "lower"},
	{Name: "observer.attribution.step_ms", Unit: "ms", Better: "lower"},
	{Name: "observer.attribution.samples_per_step", Unit: "count", Better: "lower"},
	{Name: "observer.attribution.bytes_per_fn", Unit: "B", Better: "lower"},
	{Name: "observer.provenance.invocation_ns", Unit: "ns", Better: "lower"},
	{Name: "observer.provenance.step_ms", Unit: "ms", Better: "lower"},
	{Name: "observer.provenance.samples_per_step", Unit: "count", Better: "lower"},
	{Name: "observer.provenance.bytes_per_fn", Unit: "B", Better: "lower"},
	{Name: "observer.alert.invocation_ns", Unit: "ns", Better: "lower"},
	{Name: "observer.alert.step_ms", Unit: "ms", Better: "lower"},
	{Name: "observer.alert.samples_per_step", Unit: "count", Better: "lower"},
	{Name: "observer.alert.bytes_per_fn", Unit: "B", Better: "lower"},
	{Name: "observer.chain_step_share", Unit: "ratio", Better: "lower"},
	// internal/tournament
	{Name: "tournament.mpc.step_ms", Unit: "ms", Better: "lower"},
	{Name: "tournament.hawkes.step_ms", Unit: "ms", Better: "lower"},
	{Name: "tournament.qlearn.step_ms", Unit: "ms", Better: "lower"},
	// the bench itself
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "loadgen.conns", Unit: "count", Better: "higher"},
	{Name: "build_s", Unit: "s", Better: "lower"},
	// demoted from the end-to-end list (README.md "Demoted metrics"), still
	// measured against the spawned daemon by the untraced part of the run
	{Name: "invoke_p99_us", Unit: "us", Better: "lower"},
	{Name: "stall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "step_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "scrape_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "churn_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "invoke_fail_ratio", Unit: "ratio", Better: "lower"},
}
