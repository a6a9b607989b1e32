package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// feedAllStreams delivers one sample of every per-function stream for fn.
func feedAllStreams(tel *Telemetry, fn int, variant string) {
	tel.ObserveInvocation(InvocationSample{Function: fn, Variant: variant, Count: 1, ServiceSec: 0.2})
	tel.ObserveKeepAlive(KeepAliveSample{Function: fn, Variant: 0, VariantName: variant, MemMB: 64})
	tel.ObserveSchedule(ScheduleSample{Function: fn, Plan: []int{0}, Probs: []float64{0.5}})
	tel.ObserveDowngrade(DowngradeSample{Function: fn, FromVariant: 1, ToVariant: 0})
}

// parkedWriter blocks its first Write until released and keeps its text.
type parkedWriter struct {
	once             sync.Once
	entered, release chan struct{}
	first            string
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		w.first = string(p)
		close(w.entered)
		<-w.release
	})
	return len(p), nil
}

func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// A scrape must not stall samples. With a scrape parked inside its writer —
// after the render, for a small table, and in the middle of the invocation
// family, for one whose text outgrows a write — samples for never-seen
// functions (in an allocated chunk and in a new one) and for seen ones all
// return: a render holds the lock samples take only while it copies one
// chunk, never across a write.
func TestScrapeDoesNotStallSamples(t *testing.T) {
	for _, tc := range []struct {
		name      string
		functions int
	}{{"after the render", 1}, {"inside a family", 2 * chunkSlots}} {
		t.Run(tc.name, func(t *testing.T) {
			tel := newTestTelemetry(t)
			for fn := 0; fn < tc.functions; fn++ {
				feedAllStreams(tel, fn, "v")
			}
			w := &parkedWriter{entered: make(chan struct{}), release: make(chan struct{})}
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				if err := tel.Registry().WritePrometheus(w); err != nil {
					t.Error(err)
				}
			}()
			<-w.entered
			if inside := !strings.Contains(w.first, "# HELP pulse_function_service_seconds"); inside != (tc.functions > 1) {
				t.Fatalf("first write ends inside the invocation family = %v, want %v", inside, tc.functions > 1)
			}
			fed := make(chan struct{})
			go func() {
				defer close(fed)
				feedAllStreams(tel, tc.functions, "v")
				feedAllStreams(tel, 5*chunkSlots+1, "v")
				feedAllStreams(tel, 0, "v")
			}()
			within(t, fed, "samples during a scrape parked in its writer")
			close(w.release)
			within(t, scraped, "the scrape")

			out := render(t, tel)
			for _, want := range []string{
				`pulse_function_invocations_total{function="0",variant="v",start="warm"} 2`,
				`pulse_function_invocations_total{function="` + strconv.Itoa(tc.functions) + `",variant="v",start="warm"} 1`,
				`pulse_schedules_total{function="0"} 2`,
				`pulse_function_keepalive_mb{function="2561",variant="v"} 64`,
			} {
				if !strings.Contains(out, want+"\n") {
					t.Errorf("missing %q", want)
				}
			}
		})
	}
}

// The slot table indexes where maps hashed, so what a foreign feed can put in
// a sample's Function and Variant must be dropped or grown for, never
// indexed blindly.
func TestTelemetryForeignFeed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fn      int
		dropped bool
	}{
		{"negative", -1, true},
		{"most negative", math.MinInt, true},
		{"at the bound", maxSlots, true},
		{"huge", math.MaxInt, true},
		{"last slot", maxSlots - 1, false},
		{"past the table", 5*chunkSlots + 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := newTestTelemetry(t)
			feedAllStreams(tel, 1, "v")
			feedAllStreams(tel, tc.fn, "v")
			tel.ObserveKeepAlive(KeepAliveSample{Function: tc.fn, Variant: -1})
			tel.ObserveDeregister(DeregisterSample{Function: tc.fn, Name: "x"})
			label := `function="` + strconv.Itoa(tc.fn) + `"`
			if got := strings.Contains(render(t, tel), label); got == tc.dropped {
				t.Errorf("series labeled %s present = %v, want dropped = %v", label, got, tc.dropped)
			}
			// The decision log indexes nothing by slot and keeps the events.
			if n := len(tel.Events().Select(Filter{HasFunction: true, Function: tc.fn})); n != 3 {
				t.Errorf("%d events for function %d, want schedule, downgrade and deregister", n, tc.fn)
			}
		})
	}

	// Variant is an index only in name: gauges are found by VariantName, so
	// no index a feed sends can reach outside a table, and one function may
	// hold the same index under two names.
	tel := newTestTelemetry(t)
	tel.ObserveKeepAlive(KeepAliveSample{Function: 0, Variant: math.MaxInt, VariantName: "a", MemMB: 1})
	tel.ObserveKeepAlive(KeepAliveSample{Function: 0, Variant: math.MaxInt, VariantName: "b", MemMB: 2})
	tel.ObserveKeepAlive(KeepAliveSample{Function: 0, Variant: math.MinInt})
	tel.ObserveKeepAlive(KeepAliveSample{Function: 0, Variant: 7, VariantName: "a", MemMB: 3})
	// A sample for a slot after its deregistration is served as before: the
	// gauge follows it.
	tel.ObserveDeregister(DeregisterSample{Function: 0, Name: "x"})
	out := render(t, tel)
	if !strings.Contains(out, `pulse_function_keepalive_mb{function="0",variant="a"} 0`+"\n") ||
		!strings.Contains(out, `pulse_function_keepalive_mb{function="0",variant="b"} 0`+"\n") {
		t.Errorf("gauges after release and deregister:\n%s", out)
	}
	tel.ObserveKeepAlive(KeepAliveSample{Function: 0, Variant: 0, VariantName: "b", MemMB: 4})
	if out := render(t, tel); !strings.Contains(out, `pulse_function_keepalive_mb{function="0",variant="b"} 4`+"\n") {
		t.Errorf("sample after deregister not applied:\n%s", out)
	}
}

// A slot sampled with more variants than it keeps inline spills the rest,
// and every one of them still renders, in label order.
func TestTelemetryVariantSpill(t *testing.T) {
	tel := newTestTelemetry(t)
	names := []string{"v5", "v1", "v4", "v0", "v3", "v2"}
	for k, v := range names {
		tel.ObserveInvocation(InvocationSample{Function: 700, Variant: v, Count: k + 1, ServiceSec: 0.1})
		tel.ObserveKeepAlive(KeepAliveSample{Function: 700, Variant: k, VariantName: v, MemMB: float64(k + 1)})
	}
	tel.ObserveInvocation(InvocationSample{Function: 700, Variant: "v5", Cold: true, ServiceSec: 3})
	out := render(t, tel)
	last := -1
	for k, v := range []string{"v0", "v1", "v2", "v3", "v4", "v5"} {
		want := `pulse_function_keepalive_mb{function="700",variant="` + v + `"} 0`
		if v == "v2" { // the last held
			want = `pulse_function_keepalive_mb{function="700",variant="v2"} 6`
		}
		at := strings.Index(out, want+"\n")
		if at < 0 || at < last {
			t.Errorf("%q missing or out of order (variant %d)", want, k)
		}
		last = at
	}
	for _, want := range []string{
		`pulse_function_invocations_total{function="700",variant="v0",start="warm"} 4`,
		`pulse_function_invocations_total{function="700",variant="v5",start="cold"} 1`,
		`pulse_function_invocations_total{function="700",variant="v5",start="warm"} 1`,
		`pulse_function_service_seconds_count{function="700"} 22`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if len(tel.spill[700]) != len(names)-inlineVariants || len(tel.keptSpill[700]) != len(names)-inlineVariants {
		t.Errorf("slot 700 spilled %d invoked and %d held variants, want %d each", len(tel.spill[700]), len(tel.keptSpill[700]), len(names)-inlineVariants)
	}
}

// The unchanged-holder return must be invisible: a holder's gauge reads the
// same whether or not the repeat samples were applied, and a change in
// memory alone (same variant) still lands.
func TestTelemetryUnchangedHolder(t *testing.T) {
	tel := newTestTelemetry(t)
	hold := KeepAliveSample{Function: 3, Variant: 1, VariantName: "v1", MemMB: 512}
	for m := 0; m < 3; m++ {
		hold.Minute = m
		tel.ObserveKeepAlive(hold)
	}
	if out := render(t, tel); !strings.Contains(out, `pulse_function_keepalive_mb{function="3",variant="v1"} 512`+"\n") {
		t.Fatalf("held gauge:\n%s", out)
	}
	hold.MemMB = 640
	tel.ObserveKeepAlive(hold)
	if out := render(t, tel); !strings.Contains(out, `pulse_function_keepalive_mb{function="3",variant="v1"} 640`+"\n") {
		t.Errorf("memory change under the same variant not applied:\n%s", out)
	}
	// Release, then the same variant and memory again: not "unchanged".
	tel.ObserveKeepAlive(KeepAliveSample{Function: 3, Variant: -1})
	tel.ObserveKeepAlive(hold)
	if out := render(t, tel); !strings.Contains(out, `pulse_function_keepalive_mb{function="3",variant="v1"} 640`+"\n") {
		t.Errorf("re-hold after release not applied:\n%s", out)
	}
}

// Producers sharing one Telemetry — concurrent simulation runs — write from
// many goroutines at once, the first touches of a function racing each
// other, the barrier streams and a scraper: every count must land exactly
// once. Run under -race.
func TestTelemetryConcurrentInvocations(t *testing.T) {
	tel := newTestTelemetry(t)
	const (
		workers   = 8
		functions = 3 * chunkSlots / 2 // crosses a chunk boundary
		rounds    = 4
	)
	variants := []string{"lo", "hi"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for fn := 0; fn < functions; fn++ {
					tel.ObserveInvocation(InvocationSample{Function: fn, Variant: variants[(fn+r)%2], Cold: (w+r)%2 == 0, Count: 1, ServiceSec: 0.1})
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for m := 0; m < rounds; m++ {
			for fn := 0; fn < functions; fn++ {
				tel.ObserveKeepAlive(KeepAliveSample{Minute: m, Function: fn, Variant: m % 2, VariantName: variants[m%2], MemMB: 8})
				tel.ObserveSchedule(ScheduleSample{Minute: m, Function: fn, Plan: []int{1, 0}, Probs: []float64{0.5, 0.1}})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			render(t, tel)
		}
	}()
	wg.Wait()

	tel.mu.Lock()
	defer tel.mu.Unlock()
	for fn := 0; fn < functions; fn++ {
		c, i := tel.at(fn, false)
		var n uint64
		for _, v := range c.inv[i].vars[:c.inv[i].nvars] {
			n += v.inv[0] + v.inv[1]
		}
		if hist := c.inv[i].svc.count; n != workers*rounds || hist != workers*rounds {
			t.Fatalf("function %d: counters sum to %d, histogram holds %d, want %d", fn, n, hist, workers*rounds)
		}
	}
}

// Concurrent writers sharing one Telemetry while it is scraped end with the
// series a serial feed of the same samples makes: counts, histogram buckets
// and sums (exact binary fractions, so their order does not round), and
// gauges, each writer owning the keep-alive stream of its own functions as a
// producer owns its population. Run under -race.
func TestTelemetryConcurrentWritersMatchSerial(t *testing.T) {
	const (
		writers   = 4
		functions = chunkSlots + 100
		minutes   = 6
	)
	variants := []string{"lo", "mid", "hi"}
	feeds := make([]func(*Telemetry), writers)
	for w := range feeds {
		feeds[w] = func(tel *Telemetry) {
			for m := 0; m < minutes; m++ {
				for fn := 0; fn < functions; fn++ {
					v := (fn + m + w) % len(variants)
					tel.ObserveInvocation(InvocationSample{Minute: m, Function: fn, Variant: variants[v], Cold: (fn+w)%3 == 0, Count: 1 + w, ServiceSec: []float64{0.125, 0.5, 4}[v]})
					if fn%writers == w {
						if (fn+m)%4 == 3 {
							tel.ObserveKeepAlive(KeepAliveSample{Minute: m, Function: fn, Variant: -1})
						} else {
							tel.ObserveKeepAlive(KeepAliveSample{Minute: m, Function: fn, Variant: v, VariantName: variants[v], MemMB: float64(64 * (v + 1))})
						}
					}
					if fn%5 == m%5 {
						tel.ObserveSchedule(ScheduleSample{Minute: m, Function: fn, Plan: []int{v}, Probs: []float64{0.5}})
						tel.ObserveDowngrade(DowngradeSample{Minute: m, Function: fn, FromVariant: v, ToVariant: 0})
					}
				}
				tel.ObserveScan(ScanSample{Minute: m, Shard: w - 1, Seconds: 0.25})
			}
		}
	}

	serial := newTestTelemetry(t)
	for _, feed := range feeds {
		feed(serial)
	}
	shared := newTestTelemetry(t)
	var wg sync.WaitGroup
	for _, feed := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed(shared)
		}()
	}
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				render(t, shared)
			}
		}
	}()
	wg.Wait()
	close(done)
	<-scraped

	want, got := render(t, serial), render(t, shared)
	if got != want {
		wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := range min(len(wl), len(gl)) {
			if wl[i] != gl[i] {
				t.Fatalf("line %d: concurrent feed renders %q, serial %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("concurrent feed renders %d lines, serial %d", len(gl), len(wl))
	}
	for _, series := range []string{
		`pulse_function_service_seconds_count{function="611"}`,
		`pulse_function_keepalive_mb{function="2",variant="mid"}`,
		`pulse_shard_scan_duration_seconds_count{shard="2"} 6`,
	} {
		if !strings.Contains(want, series) {
			t.Errorf("render lacks %s", series)
		}
	}
}
