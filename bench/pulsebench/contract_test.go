package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in metrics.go are what
// the code reports. They must not drift apart, and the file must stay inside
// the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloads) {
		t.Errorf("workloads differ from metrics.go:\n file %+v\n code %+v", file.Workloads, workloads)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n file %+v\n code %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n file %+v\n code %+v", file.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v / paths %v", file.Command, file.Paths)
	}

	// The driver's limits.
	if len(raw) > 64<<10 {
		t.Errorf("file is %d bytes, limit 64 KiB", len(raw))
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	hasSetup, largest := false, 0.0
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v", m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must exist (s, lower) and carry the largest bound")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("metric %+v", m)
		}
	}
}

// The result line has exactly the driver's keys and every metric asked for.
func TestContractLine(t *testing.T) {
	res := newResult("w")
	res.attempted = 10
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	res.set("a", 1.5, "ms", 3)
	var sb strings.Builder
	if err := res.writeContract(&sb, defs); err == nil {
		t.Fatal("a missing metric must be an error, not a hole")
	}
	res.set("b", 2.25, "s", 1)
	sb.Reset()
	if err := res.writeContract(&sb, defs); err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":10,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"},"b":{"value":2.25,"unit":"s"}}}` + "\n"
	if sb.String() != want {
		t.Errorf("got  %swant %s", sb.String(), want)
	}
	res.check(false, "broken")
	sb.Reset()
	_ = res.writeContract(&sb, defs)
	if !strings.HasPrefix(sb.String(), `{"correct":false,`) {
		t.Errorf("a failed check must report correct=false: %s", sb.String())
	}
}
