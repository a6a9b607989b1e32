package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.NewCounterVec("", "empty"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := r.NewCounterVec("9starts_with_digit", "bad"); err == nil {
		t.Error("leading digit accepted")
	}
	if _, err := r.NewCounterVec("has space", "bad"); err == nil {
		t.Error("space in name accepted")
	}
	if _, err := r.NewCounterVec("ok_total", "ok", "bad-label"); err == nil {
		t.Error("bad label name accepted")
	}
	if _, err := r.NewCounterVec("ok_total", "ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.NewGaugeVec("ok_total", "dup"); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := r.NewHistogramVec("h", "le reserved", nil, "le"); err == nil {
		t.Error("histogram le label accepted")
	}
	if _, err := r.NewHistogramVec("h", "bad buckets", []float64{1, 1}); err == nil {
		t.Error("non-increasing buckets accepted")
	}
	if err := r.NewGaugeFunc("f", "nil fn", nil); err == nil {
		t.Error("nil func accepted")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	cv, err := r.NewCounterVec("c_total", "c", "l")
	if err != nil {
		t.Fatal(err)
	}
	c := cv.With("a")
	c.Inc()
	c.Inc()
	if got := c.s.value(); got != 2 {
		t.Errorf("counter = %v, want 2", got)
	}
	if cv.With("a").s.value() != 2 {
		t.Error("With should resolve the same series")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label arity mismatch did not panic")
			}
		}()
		cv.With("a", "b")
	}()

	gv, err := r.NewGaugeVec("g", "g")
	if err != nil {
		t.Fatal(err)
	}
	g := gv.With()
	g.Set(10)
	g.Set(6)
	if got := g.s.value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}

	hv, err := r.NewHistogramVec("h_seconds", "h", []float64{1, 2, 4}, "l")
	if err != nil {
		t.Fatal(err)
	}
	h := hv.With("x")
	h.Observe(0.5)
	h.Observe(3)
	h.ObserveN(100, 2) // beyond the last bucket → +Inf only
	h.ObserveN(1, 0)   // no-op
	if n := atomic.LoadUint64(&h.s.count); n != 4 {
		t.Errorf("count = %d, want 4", n)
	}
	if sum := h.s.value(); sum != 203.5 {
		t.Errorf("sum = %v, want 203.5", sum)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	cv, err := r.NewCounterVec("c_total", "c", "worker")
	if err != nil {
		t.Fatal(err)
	}
	hv, err := r.NewHistogramVec("h_seconds", "h", []float64{1}, "worker")
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := strconv.Itoa(w % 2) // contend on two series
			for i := 0; i < per; i++ {
				cv.With(lbl).Inc()
				hv.With(lbl).Observe(0.5)
			}
		}(w)
	}
	wg.Wait()
	total := cv.With("0").s.value() + cv.With("1").s.value()
	if total != workers*per {
		t.Errorf("counter total = %v, want %d", total, workers*per)
	}
	if n := atomic.LoadUint64(&hv.With("0").s.count) + atomic.LoadUint64(&hv.With("1").s.count); n != workers*per {
		t.Errorf("histogram count = %d, want %d", n, workers*per)
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
	r := NewRegistry()
	cv, err := r.NewCounterVec("pulse_test_total", "Counter with tricky\nhelp and back\\slash.", "function", "variant")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cv.With("0", `quoted"value`).Inc()
	}
	cv.With("1", "back\\slash\nnewline").Inc()

	gv, err := r.NewGaugeVec("pulse_test_mb", "A gauge.")
	if err != nil {
		t.Fatal(err)
	}
	gv.With().Set(1536.5)

	hv, err := r.NewHistogramVec("pulse_test_seconds", "A histogram.", []float64{0.5, 1, 2}, "function")
	if err != nil {
		t.Fatal(err)
	}
	h := hv.With("7")
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(5)

	if err := r.NewGaugeFunc("pulse_test_func", "Scrape-time gauge.", func() float64 { return 42 }); err != nil {
		t.Fatal(err)
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

	// Label escaping round-trips.
	wantLines := []string{
		`pulse_test_total{function="0",variant="quoted\"value"} 3`,
		`pulse_test_total{function="1",variant="back\\slash\nnewline"} 1`,
		`pulse_test_mb 1536.5`,
		`pulse_test_func 42`,
		`pulse_test_seconds_bucket{function="7",le="0.5"} 1`,
		`pulse_test_seconds_bucket{function="7",le="1"} 2`,
		`pulse_test_seconds_bucket{function="7",le="2"} 2`,
		`pulse_test_seconds_bucket{function="7",le="+Inf"} 3`,
		`pulse_test_seconds_sum{function="7"} 5.9`,
		`pulse_test_seconds_count{function="7"} 3`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q:\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative and consistent with count.
	var prev uint64
	for _, line := range samples["pulse_test_seconds"] {
		if !strings.Contains(line, "_bucket") {
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
		t.Errorf("+Inf bucket = %d, want total count 3", prev)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1.5:          "1.5",
		0:            "0",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSeriesOrderingDeterministic(t *testing.T) {
	r := NewRegistry()
	cv, err := r.NewCounterVec("c_total", "c", "l")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"b", "a", "c"} {
		cv.With(l).Inc()
	}
	var b1, b2 strings.Builder
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("two renders differ")
	}
	ia := strings.Index(b1.String(), `l="a"`)
	ib := strings.Index(b1.String(), `l="b"`)
	ic := strings.Index(b1.String(), `l="c"`)
	if !(ia < ib && ib < ic) {
		t.Errorf("series not sorted: positions a=%d b=%d c=%d", ia, ib, ic)
	}
}

func ExampleRegistry() {
	r := NewRegistry()
	cv, _ := r.NewCounterVec("requests_total", "Requests served.", "code")
	for i := 0; i < 3; i++ {
		cv.With("200").Inc()
	}
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # HELP requests_total Requests served.
	// # TYPE requests_total counter
	// requests_total{code="200"} 3
}
