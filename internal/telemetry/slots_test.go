package telemetry

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// parkedWriter blocks its first Write until released.
type parkedWriter struct {
	once             sync.Once
	entered, release chan struct{}
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
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

// A scrape must not stall samples. With a scrape parked inside its writer,
// samples for a never-seen function (which create series) and for a seen one
// all return. And while a render holds a family's read lock — what
// WritePrometheus does for the length of its snapshot — a never-seen
// function's samples wait for it, as they must (creating a series writes the
// family), but nobody else waits with them: samples on already-resolved
// series take no lock the waiting creation holds.
func TestScrapeDoesNotStallSamples(t *testing.T) {
	tel := newTestTelemetry(t)
	feedAllStreams(tel, 0, "v")

	w := &parkedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		if err := tel.Registry().WritePrometheus(w); err != nil {
			t.Error(err)
		}
	}()
	<-w.entered
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		feedAllStreams(tel, 1, "v")
		feedAllStreams(tel, 0, "v")
	}()
	within(t, fed, "samples during a scrape parked in its writer")
	close(w.release)
	within(t, scraped, "the scrape")

	fams := []*family{tel.invocations.f, tel.service.f, tel.keepalive.f, tel.schedules.f, tel.downgrades.f}
	for _, f := range fams {
		f.mu.RLock()
	}
	fresh := make(chan struct{})
	go func() {
		defer close(fresh)
		feedAllStreams(tel, 2, "v")
	}()
	runtime.Gosched()
	hit := make(chan struct{})
	go func() {
		defer close(hit)
		feedAllStreams(tel, 0, "v")
		feedAllStreams(tel, 1, "v")
	}()
	within(t, hit, "samples on resolved series, with a series creation waiting behind a render,")
	select {
	case <-fresh:
		t.Error("a series was created in a family whose read lock was held")
	default:
	}
	for _, f := range fams {
		f.mu.RUnlock()
	}
	within(t, fresh, "the never-seen function's samples, once the render let go,")

	out := render(t, tel)
	for _, want := range []string{
		`pulse_function_invocations_total{function="0",variant="v",start="warm"} 3`,
		`pulse_function_invocations_total{function="2",variant="v",start="warm"} 1`,
		`pulse_schedules_total{function="1"} 2`,
		`pulse_function_keepalive_mb{function="2",variant="v"} 64`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
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

// Invocation samples arrive from many goroutines at once, the first touches
// of a function racing each other, the barrier streams and a scraper: every
// count must land exactly once. Run under -race.
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

	for fn := 0; fn < functions; fn++ {
		set := tel.lookup(fn).inv.Load()
		var n float64
		for _, v := range set.variants {
			for _, c := range v.start {
				if c != nil {
					n += c.value()
				}
			}
		}
		if hist := atomic.LoadUint64(&set.svc.count); n != workers*rounds || hist != workers*rounds {
			t.Fatalf("function %d: counters sum to %v, histogram holds %d, want %d", fn, n, hist, workers*rounds)
		}
	}
}
