// Package alert is pulsed's live ops surface: a fan-out broadcaster that
// streams the decision log and per-minute series to any number of SSE
// subscribers, and a threshold rule engine evaluated at the minute barrier
// that turns regressions — cold-start spikes, savings falling behind the
// fixed baseline, keep-alive memory peaks, invocations of deregistered
// functions — into firing/resolved notifications delivered to pluggable
// sinks (log lines, webhook POSTs, the stream itself).
//
// The package sits entirely behind the telemetry Observer seam: the Engine
// implements telemetry.Observer and closes a minute when the next minute's
// rollup sample arrives, exactly the way the attribution Accountant does.
// Both the cluster engine and the live runtime emit minute rollups under
// their minute barriers, so rule evaluation is deterministic — the same
// trace produces the same firing minutes whether replayed through the
// serial runtime, the epoch runtime, or the (sharded) cluster engine.
//
// Nothing here blocks a producer: the Broadcaster drops events on slow
// subscribers (counting every drop), and the Engine hands notifications to
// a bounded queue drained by its own delivery goroutine, so a stalled
// webhook endpoint can never stall the serving path's minute barrier.
package alert

import (
	"fmt"
	"math"
	"strings"
)

// Metric identifies one per-minute rule input.
type Metric int

// The rule inputs. All are cluster-wide per-minute values, computed when
// the minute closes.
const (
	// MetricColdRatePct is the minute's cold-start percentage:
	// 100 × cold starts / invocations (0 when the minute had no traffic).
	MetricColdRatePct Metric = iota
	// MetricSavingsVsFixedUSD is the minute's keep-alive savings versus
	// the fixed-high shadow baseline, from the attribution ring
	// (attribution.MetricSavingsVsFixedUSD). Rules over it require an
	// Accountant.
	MetricSavingsVsFixedUSD
	// MetricKaMMB is the keep-alive memory (MB) held during the minute.
	MetricKaMMB
	// MetricDeregInvokes counts invocation attempts against deregistered
	// functions during the minute (the API's 410 responses).
	MetricDeregInvokes
	numMetrics
)

var metricNames = [numMetrics]string{
	MetricColdRatePct:       "cold_rate_pct",
	MetricSavingsVsFixedUSD: "savings_vs_fixed_usd",
	MetricKaMMB:             "kam_mb",
	MetricDeregInvokes:      "dereg_invokes",
}

// String returns the metric's rule-file name.
func (m Metric) String() string {
	if m < 0 || m >= numMetrics {
		return fmt.Sprintf("metric(%d)", int(m))
	}
	return metricNames[m]
}

// MetricNames lists every rule-input name, in declaration order.
func MetricNames() []string {
	out := make([]string, numMetrics)
	for i, n := range metricNames {
		out[i] = n
	}
	return out
}

// ParseMetric resolves a rule-file name back to its Metric.
func ParseMetric(name string) (Metric, error) {
	for i, n := range metricNames {
		if n == name {
			return Metric(i), nil
		}
	}
	return 0, fmt.Errorf("alert: unknown metric %q (one of %s)", name, strings.Join(MetricNames(), ", "))
}

// Op is a rule's comparison direction.
type Op int

const (
	// OpAbove breaches when the value exceeds the threshold.
	OpAbove Op = iota
	// OpBelow breaches when the value falls under the threshold.
	OpBelow
)

// String returns the rule-file operator.
func (o Op) String() string {
	if o == OpBelow {
		return "<"
	}
	return ">"
}

// breached reports whether v violates the rule direction.
func (o Op) breached(v, threshold float64) bool {
	if o == OpBelow {
		return v < threshold
	}
	return v > threshold
}

// Notification states.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Notification is one alert transition — the webhook payload, the log-sink
// line, and the SSE "alert" event all carry exactly this schema.
type Notification struct {
	// Rule is the rule's name.
	Rule string `json:"rule"`
	// Metric is the rule input's wire name (see MetricNames).
	Metric string `json:"metric"`
	// State is "firing" or "resolved".
	State string `json:"state"`
	// Minute is the closed simulated minute the transition happened at.
	Minute int `json:"minute"`
	// Value is the metric's value at that minute.
	Value float64 `json:"value"`
	// Op and Threshold restate the rule condition (value Op threshold).
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	// SinceMinute is the first breached minute of the episode (for firing,
	// Minute−For+1; for resolved, the minute the episode originally fired).
	SinceMinute int `json:"sinceMinute"`
}

// Status is the engine's health summary, served by GET /healthz. The zero
// value (Enabled false) is what a nil engine reports.
type Status struct {
	Enabled bool `json:"enabled"`
	// Rules is the number of configured rules.
	Rules int `json:"rules"`
	// Firing lists the names of currently firing rules (empty, not null,
	// when quiet).
	Firing []string `json:"firing"`
	// Minute is the open (still accumulating) minute, -1 before any sample.
	Minute int `json:"minute"`
	// Delivered counts notifications handed to every sink; Dropped counts
	// notifications discarded because the delivery queue was full.
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// finite rejects NaN/Inf thresholds at rule validation.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
