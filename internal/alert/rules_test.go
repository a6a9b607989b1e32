package alert

import (
	"math"
	"strings"
	"testing"
)

func TestParseRules(t *testing.T) {
	in := `
# comment, then a blank line

cold-spike   cold_rate_pct        >  50    for=3  cooldown=5
savings-reg  savings_vs_fixed_usd <  0     for=5
kam-peak     kam_mb               >  8192
`
	rules, err := ParseRules(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Name: "cold-spike", Metric: MetricColdRatePct, Op: OpAbove, Threshold: 50, For: 3, Cooldown: 5},
		{Name: "savings-reg", Metric: MetricSavingsVsFixedUSD, Op: OpBelow, Threshold: 0, For: 5},
		{Name: "kam-peak", Metric: MetricKaMMB, Op: OpAbove, Threshold: 8192, For: 1},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d: %+v, want %+v", i, rules[i], want[i])
		}
	}
}

func TestParseRulesRejects(t *testing.T) {
	for name, in := range map[string]string{
		"too few fields":   "r1 cold_rate_pct >",
		"unknown metric":   "r1 nope > 5",
		"bad operator":     "r1 cold_rate_pct >= 5",
		"bad threshold":    "r1 cold_rate_pct > zap",
		"bad option":       "r1 cold_rate_pct > 5 for",
		"unknown option":   "r1 cold_rate_pct > 5 window=3",
		"bad option value": "r1 cold_rate_pct > 5 for=x",
		"zero for":         "r1 cold_rate_pct > 5 for=0",
		"negative cool":    "r1 cold_rate_pct > 5 cooldown=-1",
		"duplicate name":   "r1 cold_rate_pct > 5\nr1 kam_mb > 1",
	} {
		if _, err := ParseRules(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// Every rule renders back into syntax its own parser accepts, with the
// same meaning — so a rule set can be logged and pasted into a rule file.
func TestRuleStringRoundTrips(t *testing.T) {
	for _, r := range DefaultRules(true) {
		back, err := ParseRules(strings.NewReader(r.String()))
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if len(back) != 1 || back[0] != r {
			t.Errorf("%s round-tripped to %+v", r, back)
		}
	}
}

func TestMetricNamesRoundTrip(t *testing.T) {
	for _, name := range MetricNames() {
		m, err := ParseMetric(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != name {
			t.Errorf("metric %q round-tripped to %q", name, m.String())
		}
	}
	if _, err := ParseMetric("bogus"); err == nil {
		t.Error("bogus metric accepted")
	}
}

func TestDefaultRulesValidate(t *testing.T) {
	for _, withSavings := range []bool{false, true} {
		rules := DefaultRules(withSavings)
		for _, r := range rules {
			if err := r.Validate(); err != nil {
				t.Errorf("default rule %s invalid: %v", r.Name, err)
			}
		}
		hasSavings := false
		for _, r := range rules {
			if r.Metric == MetricSavingsVsFixedUSD {
				hasSavings = true
			}
		}
		if hasSavings != withSavings {
			t.Errorf("withSavings=%v: savings rule present=%v", withSavings, hasSavings)
		}
	}
}

// Validate guards rules built in code as well as parsed ones, so it checks
// the fields the parser cannot produce out of range: metric, operator and
// a non-finite threshold.
func TestRuleValidateRejects(t *testing.T) {
	ok := Rule{Name: "r1", Metric: MetricKaMMB, Op: OpBelow, Threshold: 1, For: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid rule %+v rejected: %v", ok, err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*Rule)
	}{
		{"empty name", func(r *Rule) { r.Name = "" }},
		{"name with space", func(r *Rule) { r.Name = "cold spike" }},
		{"name with tab", func(r *Rule) { r.Name = "cold\tspike" }},
		{"negative metric", func(r *Rule) { r.Metric = -1 }},
		{"metric past the last", func(r *Rule) { r.Metric = numMetrics }},
		{"unknown operator", func(r *Rule) { r.Op = OpBelow + 1 }},
		{"NaN threshold", func(r *Rule) { r.Threshold = math.NaN() }},
		{"infinite threshold", func(r *Rule) { r.Threshold = math.Inf(-1) }},
		{"zero for", func(r *Rule) { r.For = 0 }},
		{"negative cooldown", func(r *Rule) { r.Cooldown = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := ok
			c.mutate(&r)
			if err := r.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", r)
			}
		})
	}
}
