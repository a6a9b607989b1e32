package telemetry

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	one := func() float64 { return 1 }
	for _, name := range []string{"", "9starts_with_digit", "has space"} {
		if err := r.NewCounterFunc(name, "bad", one); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	if err := r.NewCounterFunc("ok_total", "ok", one); err != nil {
		t.Fatal(err)
	}
	if err := r.NewGaugeFunc("ok_total", "dup", one); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.NewGaugeFunc("f", "nil fn", nil); err == nil {
		t.Error("nil func accepted")
	}
	if _, err := New(Config{}); err != nil {
		t.Fatalf("telemetry's own families rejected: %v", err)
	}
}

// Telemetry's unlabeled series: the peak counter and gauge, the lifecycle
// counters, and a duration histogram with an observation past its last
// bound (+Inf only).
func TestCounterGaugeHistogram(t *testing.T) {
	tel := newTestTelemetry(t)
	tel.ObservePeak(PeakSample{Enter: true})
	tel.ObservePeak(PeakSample{Enter: true})
	tel.ObserveRegister(RegisterSample{Function: 0, Name: "a"})
	out := render(t, tel)
	for _, want := range []string{"pulse_peaks_total 2", "pulse_peak_active 1", "pulse_function_registrations_total 1", "pulse_function_deregistrations_total 0"} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q", want)
		}
	}
	tel.ObservePeak(PeakSample{})
	obs := []float64{5e-7, 3e-3, 100, 100}
	var sum float64
	for _, v := range obs {
		tel.ObserveStep(StepSample{Seconds: v})
		sum += v
	}
	out = render(t, tel)
	for _, want := range []string{
		"pulse_peaks_total 2",
		"pulse_peak_active 0",
		`pulse_step_duration_seconds_bucket{le="1e-06"} 1`,
		`pulse_step_duration_seconds_bucket{le="0.001"} 1`,
		`pulse_step_duration_seconds_bucket{le="0.005"} 2`,
		`pulse_step_duration_seconds_bucket{le="1"} 2`,
		`pulse_step_duration_seconds_bucket{le="+Inf"} 4`,
		"pulse_step_duration_seconds_sum " + string(appendValue(nil, sum)),
		"pulse_step_duration_seconds_count 4",
		"pulse_observer_flush_duration_seconds_count 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	tel := newTestTelemetry(t)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tel.ObservePeak(PeakSample{Enter: true})
				tel.ObserveStep(StepSample{Seconds: 0.5})
				tel.ObserveScan(ScanSample{Shard: w % 2, Seconds: 0.5})
			}
		}()
	}
	wg.Wait()
	out := render(t, tel)
	for _, want := range []string{
		"pulse_peaks_total 8000",
		"pulse_step_duration_seconds_count 8000",
		`pulse_shard_scan_duration_seconds_count{shard="0"} 4000`,
		`pulse_shard_scan_duration_seconds_count{shard="1"} 4000`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q", want)
		}
	}
}

// parseExposition is a strict line-by-line parser of the text exposition
// format, returning family → sample lines and asserting HELP/TYPE
// structure along the way.
func parseExposition(t *testing.T, out string) map[string][]string {
	t.Helper()
	samples := make(map[string][]string)
	var curFamily string
	sawHelp := map[string]bool{}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: HELP without text: %q", i+1, line)
			}
			if sawHelp[name] {
				t.Fatalf("line %d: duplicate HELP for %s", i+1, name)
			}
			sawHelp[name] = true
			curFamily = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if fields[0] != curFamily {
				t.Fatalf("line %d: TYPE for %s not preceded by its HELP", i+1, fields[0])
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", i+1, fields[1])
			}
		case line == "":
			t.Fatalf("line %d: empty line in exposition", i+1)
		default:
			name := line
			if j := strings.IndexAny(line, "{ "); j >= 0 {
				name = line[:j]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if base != curFamily && name != curFamily {
				t.Fatalf("line %d: sample %q outside its family block (current %q)", i+1, name, curFamily)
			}
			// The value is everything after the last space.
			k := strings.LastIndex(line, " ")
			if k < 0 {
				t.Fatalf("line %d: no value: %q", i+1, line)
			}
			val := line[k+1:]
			if val != "+Inf" && val != "-Inf" {
				if _, err := strconv.ParseFloat(val, 64); err != nil {
					t.Fatalf("line %d: bad value %q: %v", i+1, val, err)
				}
			}
			// Label blocks must be balanced and quoted.
			if j := strings.Index(line, "{"); j >= 0 {
				labels := line[j:k]
				if !strings.HasSuffix(labels, "}") {
					t.Fatalf("line %d: unterminated label block: %q", i+1, line)
				}
				validateLabelBlock(t, i+1, labels)
			}
			samples[curFamily] = append(samples[curFamily], line)
		}
	}
	return samples
}

// validLabel matches the Prometheus label-name grammar (no colons).
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validateLabelBlock checks {a="x",b="y"} syntax with exposition escaping:
// inside quotes only \\, \", and \n escapes are legal.
func validateLabelBlock(t *testing.T, lineNo int, block string) {
	t.Helper()
	s := block[1 : len(block)-1] // strip { }
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq <= 0 || !validLabel(s[:eq]) {
			t.Fatalf("line %d: bad label name in %q", lineNo, block)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			t.Fatalf("line %d: unquoted label value in %q", lineNo, block)
		}
		s = s[1:]
		closed := false
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' {
				if i+1 >= len(s) || (s[i+1] != '\\' && s[i+1] != '"' && s[i+1] != 'n') {
					t.Fatalf("line %d: illegal escape in %q", lineNo, block)
				}
				i++
				continue
			}
			if s[i] == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			if s[i] == '\n' {
				t.Fatalf("line %d: raw newline in label value of %q", lineNo, block)
			}
		}
		if !closed {
			t.Fatalf("line %d: unterminated label value in %q", lineNo, block)
		}
		if len(s) > 0 {
			if s[0] != ',' {
				t.Fatalf("line %d: expected ',' between labels in %q", lineNo, block)
			}
			s = s[1:]
		}
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	tel := newTestTelemetry(t)
	r := tel.Registry()
	if err := r.NewCounterFunc("pulse_test_total", "Counter with tricky\nhelp and back\\slash.", func() float64 { return 3 }); err != nil {
		t.Fatal(err)
	}
	if err := r.NewGaugeFunc("pulse_test_func", "Scrape-time gauge.", func() float64 { return 1536.5 }); err != nil {
		t.Fatal(err)
	}
	// Label values come from the samples: a variant name is escaped.
	for i := 0; i < 3; i++ {
		tel.ObserveInvocation(InvocationSample{Function: 0, Variant: `quoted"value`, Count: 1, ServiceSec: 0.2})
	}
	tel.ObserveKeepAlive(KeepAliveSample{Function: 1, VariantName: "back\\slash\nnewline", MemMB: 7})
	tel.ObserveInvocation(InvocationSample{Function: 7, Variant: "v", Count: 1, ServiceSec: 0.3})
	tel.ObserveInvocation(InvocationSample{Function: 7, Variant: "v", Count: 2, ServiceSec: 2})
	for _, v := range []float64{2e-4, 7e-4, 5} {
		tel.ObserveFlush(FlushSample{Seconds: v})
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples := parseExposition(t, out)

	// HELP escaping: raw newline and backslash must be escaped.
	if !strings.Contains(out, `# HELP pulse_test_total Counter with tricky\nhelp and back\\slash.`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}

	wantLines := []string{
		`pulse_function_invocations_total{function="0",variant="quoted\"value",start="warm"} 3`,
		`pulse_function_keepalive_mb{function="1",variant="back\\slash\nnewline"} 7`,
		`pulse_test_total 3`,
		`pulse_test_func 1536.5`,
		`pulse_observer_flush_duration_seconds_bucket{le="0.0005"} 1`,
		`pulse_observer_flush_duration_seconds_bucket{le="0.001"} 2`,
		`pulse_observer_flush_duration_seconds_bucket{le="1"} 2`,
		`pulse_observer_flush_duration_seconds_bucket{le="+Inf"} 3`,
		`pulse_observer_flush_duration_seconds_sum 5.0009`,
		`pulse_observer_flush_duration_seconds_count 3`,
		`pulse_function_service_seconds_bucket{function="7",le="0.25"} 0`,
		`pulse_function_service_seconds_bucket{function="7",le="0.5"} 1`,
		`pulse_function_service_seconds_bucket{function="7",le="2.5"} 3`,
		`pulse_function_service_seconds_bucket{function="7",le="+Inf"} 3`,
		`pulse_function_service_seconds_sum{function="7"} 4.3`,
		`pulse_function_service_seconds_count{function="7"} 3`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q:\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative and consistent with count.
	for _, fam := range []string{"pulse_observer_flush_duration_seconds", "pulse_function_service_seconds"} {
		var prev uint64
		for _, line := range samples[fam] {
			if !strings.Contains(line, "_bucket") || (fam == "pulse_function_service_seconds" && !strings.Contains(line, `function="7"`)) {
				continue
			}
			v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev {
				t.Errorf("bucket counts not cumulative: %q after %d", line, prev)
			}
			prev = v
		}
		if prev != 3 {
			t.Errorf("%s +Inf bucket = %d, want total count 3", fam, prev)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1.5:          "1.5",
		0:            "0",
		1e6:          "1e+06",
	}
	for in, want := range cases {
		if got := string(appendValue(nil, in)); got != want {
			t.Errorf("appendValue(%v) = %q, want %q", in, got, want)
		}
	}
}

// Series render in the byte order of their label values joined by 0xff:
// so "1023" sorts before "1" where more labels follow the function label and
// after it where none do, and a variant that extends another's name sorts
// before it where the start kind follows. Two renders agree.
func TestSeriesOrderingDeterministic(t *testing.T) {
	tel := newTestTelemetry(t)
	for _, fn := range []int{1023, 2, 1, 10, 0, 100, 19, 512} {
		for _, v := range []string{"b", "a-x", "a"} {
			tel.ObserveInvocation(InvocationSample{Function: fn, Variant: v, Cold: fn%2 == 0, Count: 1, ServiceSec: 0.1})
			tel.ObserveInvocation(InvocationSample{Function: fn, Variant: v, Count: 1, ServiceSec: 0.1})
			tel.ObserveKeepAlive(KeepAliveSample{Function: fn, VariantName: v, MemMB: 1})
		}
	}
	b1, b2 := render(t, tel), render(t, tel)
	if b1 != b2 {
		t.Error("two renders differ")
	}
	samples := parseExposition(t, b1)
	// labelKey joins a line's label values (le excluded) with 0xff.
	labelKey := func(line string) string {
		var vals []string
		for _, kv := range strings.Split(line[strings.Index(line, "{")+1:strings.LastIndex(line, "}")], ",") {
			if k, v, _ := strings.Cut(kv, "="); k != "le" {
				vals = append(vals, strings.Trim(v, `"`))
			}
		}
		return strings.Join(vals, "\xff")
	}
	for _, fam := range []string{"pulse_function_invocations_total", "pulse_function_keepalive_mb", "pulse_function_service_seconds"} {
		var keys []string
		for _, line := range samples[fam] {
			if k := labelKey(line); len(keys) == 0 || keys[len(keys)-1] != k {
				keys = append(keys, k)
			}
		}
		if !slices.IsSorted(keys) || len(keys) < 8 {
			t.Errorf("%s series not in joined-label order: %q", fam, keys)
		}
	}
	for _, order := range [][2]string{
		{`pulse_function_invocations_total{function="1023",`, `pulse_function_invocations_total{function="1",`},
		{`pulse_function_invocations_total{function="1",variant="a-x",`, `pulse_function_invocations_total{function="1",variant="a",`},
		{`pulse_function_keepalive_mb{function="1",variant="a"}`, `pulse_function_keepalive_mb{function="1",variant="a-x"}`},
		{`pulse_function_service_seconds_count{function="1"}`, `pulse_function_service_seconds_count{function="1023"}`},
		{`pulse_function_service_seconds_count{function="19"}`, `pulse_function_service_seconds_count{function="2"}`},
	} {
		if i, j := strings.Index(b1, order[0]), strings.Index(b1, order[1]); i < 0 || j < 0 || i > j {
			t.Errorf("%s not before %s", order[0], order[1])
		}
	}
}

// decimalKey orders slots like their decimal strings, followed by 0xff or
// not, across the whole slot range.
func TestDecimalKeyOrder(t *testing.T) {
	fns := []int{0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 511, 512, 1000, 1023, 9999, 10000, 65535, 100000, 999999, maxSlots - 1}
	for _, multi := range []bool{false, true} {
		sep := ""
		if multi {
			sep = "\xff"
		}
		for _, a := range fns {
			for _, b := range fns {
				want := strings.Compare(strconv.Itoa(a)+sep, strconv.Itoa(b)+sep)
				if got := cmp.Compare(decimalKey(a, multi), decimalKey(b, multi)); got != want {
					t.Errorf("multi=%v: decimalKey(%d) vs decimalKey(%d) = %d, want %d", multi, a, b, got, want)
				}
			}
		}
	}
}

func ExampleRegistry() {
	r := NewRegistry()
	_ = r.NewCounterFunc("requests_total", "Requests served.", func() float64 { return 3 })
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # HELP requests_total Requests served.
	// # TYPE requests_total counter
	// requests_total 3
}
