package runtime

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

var updateObserverPins = flag.Bool("update-observer-pins", false,
	"rewrite testdata/observer_pins from the current implementation")

// pinStream feeds one scripted, contract-obeying sample stream to obs: the
// shapes the default observers' storage has to get right — variant switches,
// release edges, a peak with repeated downgrades and an eviction, idle and
// skipped minutes, a deregistration followed by a re-registration of the same
// name under a different family, and a registration burst far past any slot
// table chunk.
func pinStream(obs telemetry.Observer, cat *models.Catalog) {
	family := map[int]int{0: 0, 1: 1, 2: 2, 3: 3}
	hold := func(m, fn, v int) {
		va := cat.Families[family[fn]].Variants[v]
		obs.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: fn, Variant: v, VariantName: va.Name, MemMB: va.MemoryMB})
	}
	release := func(m, fn int) {
		obs.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: fn, Variant: -1})
	}
	invoke := func(m, fn, v int, cold bool, count int) {
		va := cat.Families[family[fn]].Variants[v]
		sec := va.ExecSec
		if cold {
			sec = va.ColdServiceSec()
		}
		obs.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: fn, Variant: va.Name, Cold: cold, Count: count, ServiceSec: sec, AccuracyPct: va.AccuracyPct})
	}
	schedule := func(m, fn int, plan []int, probs []float64) {
		obs.ObserveSchedule(telemetry.ScheduleSample{Minute: m, Function: fn, Plan: plan, Probs: probs})
	}
	downgrade := func(m, fn, from, to int, ai, pr, ip float64) {
		obs.ObserveDowngrade(telemetry.DowngradeSample{Minute: m, Function: fn, FromVariant: from, ToVariant: to, Ai: ai, Pr: pr, Ip: ip})
	}
	closeMinute := func(m int, kam float64) {
		obs.ObserveMinute(telemetry.MinuteSample{Minute: m, KeepAliveMB: kam, CostUSD: kam * 1e-6})
		telemetry.ObserveStep(obs, telemetry.StepSample{Minute: m, Seconds: float64(m+1) * 1e-5, SeqlockRetries: uint64(m % 3)})
		telemetry.ObserveScan(obs, telemetry.ScanSample{Minute: m, Shard: -1, Functions: m, Seconds: 2e-6})
	}

	// Minute 0: first invocations arrive cold and commit plans.
	invoke(0, 0, 2, true, 1)
	invoke(0, 1, 1, true, 0) // Count 0 reads as 1
	schedule(0, 0, []int{2, 2, 2, 1}, []float64{0.9, 0.8, 0.7, 0.4})
	schedule(0, 1, []int{1, 0, -1, -1}, []float64{0.6, 0.3})
	closeMinute(0, 0)

	// Minute 1: both hold their planned variant.
	hold(1, 0, 2)
	hold(1, 1, 1)
	invoke(1, 0, 2, false, 3)
	invoke(1, 2, 2, true, 1)
	schedule(1, 2, []int{2, 2, 0, 0}, []float64{0.5, 0.5, 0.2, 0.1})
	closeMinute(1, 100)

	// Minute 2: an unchanged holder, a variant switch, a new holder.
	hold(2, 0, 2)
	hold(2, 1, 0)
	hold(2, 2, 2)
	invoke(2, 1, 0, false, 2)
	invoke(2, 1, 1, true, 1)
	closeMinute(2, 200)

	// Minute 3: a peak opens; function 2 is downgraded twice, function 0
	// once, function 1 evicted (its sample is the release edge).
	obs.ObservePeak(telemetry.PeakSample{Minute: 3, Enter: true, KeepAliveMB: 3000, PriorMB: 1500, TargetMB: 2000, Downgrades: 4})
	downgrade(3, 2, 2, 1, 0.016, 0.25, 0.5)
	downgrade(3, 2, 1, 0, 0.105, 0.25, 0.5)
	downgrade(3, 0, 2, 1, 0.011, 0.5, 0.7)
	downgrade(3, 1, 0, -1, 0.796, 0.75, 0.3)
	hold(3, 0, 1)
	release(3, 1)
	hold(3, 2, 0)
	closeMinute(3, 1800)

	// Minute 4: still inside the episode, nothing changes.
	hold(4, 0, 1)
	hold(4, 2, 0)
	invoke(4, 2, 0, false, 5)
	closeMinute(4, 1800)

	// Minute 5: the episode ends; function 0 is released, 2 returns to plan.
	obs.ObservePeak(telemetry.PeakSample{Minute: 5, Enter: false, KeepAliveMB: 1420})
	release(5, 0)
	schedule(4, 2, []int{2, 1, 1, 0}, []float64{0.9, 0.6, 0.5, 0.1})
	hold(5, 2, 2)
	closeMinute(5, 1420)

	// Minute 6: the last release edge, then an idle minute and three
	// minutes no producer reported at all.
	release(6, 2)
	closeMinute(6, 0)
	closeMinute(7, 0)

	// Minute 11: function 1 returns, holds two minutes, and is deregistered;
	// a straggling sample against its tombstoned slot follows.
	invoke(11, 1, 1, true, 1)
	schedule(11, 1, []int{1, 1, 0, -1}, []float64{0.7, 0.6, 0.2, 0.05})
	closeMinute(11, 0)
	hold(12, 1, 1)
	closeMinute(12, 6267)
	hold(13, 1, 1)
	closeMinute(13, 6267)
	telemetry.ObserveLifecycleEnd(obs, telemetry.DeregisterSample{Minute: 13, Function: 1, Name: "fn-1"})
	hold(14, 1, 0)
	closeMinute(14, 0)

	// Minute 15: the same name re-registers under another family (slot 4);
	// its ring carries on, the old entries keeping their old variant names.
	telemetry.ObserveLifecycle(obs, telemetry.RegisterSample{Minute: 15, Function: 4, Name: "fn-1", Family: 3})
	family[4] = 3
	invoke(15, 4, 2, true, 1)
	schedule(15, 4, []int{2, 1, 0}, []float64{0.8, 0.4, 0.1})
	closeMinute(15, 0)
	hold(16, 4, 2)
	closeMinute(16, 520)
	hold(17, 4, 1)
	closeMinute(17, 430)

	// Minute 18: a registration burst past every chunk boundary; a few of the
	// new slots, on both sides of the boundaries, are invoked and held.
	const burst = 1100
	for i := 0; i < burst; i++ {
		slot := 5 + i
		family[slot] = i % len(cat.Families)
		telemetry.ObserveLifecycle(obs, telemetry.RegisterSample{Minute: 18, Function: slot, Name: fmt.Sprintf("burst-%d", i), Family: family[slot]})
	}
	touched := []int{255, 256, 257, 511, 512, 1023, 1024, 1025, 5 + burst - 1}
	for _, slot := range touched {
		invoke(18, slot, 0, true, 1)
		schedule(18, slot, []int{1, 0}, []float64{0.5, 0.25})
	}
	hold(18, 4, 0)
	closeMinute(18, 330)
	// Function 0 comes back, outlives its ring window and sits through a
	// one-minute peak; the touched burst slots hold, switch and release, one
	// of them deregistering in between.
	for m := 19; m < 26; m++ {
		switch m {
		case 19:
			invoke(m, 0, 0, true, 2)
		case 23:
			obs.ObservePeak(telemetry.PeakSample{Minute: m, Enter: true, KeepAliveMB: 6400, PriorMB: 3000, TargetMB: 4000, Downgrades: 1})
			downgrade(m, 0, 2, 1, 0.011, 1, 0.9)
			hold(m, 0, 1)
		case 24:
			obs.ObservePeak(telemetry.PeakSample{Minute: m, Enter: false, KeepAliveMB: 6267})
			fallthrough
		default:
			hold(m, 0, 2)
			invoke(m, 0, 2, false, 1)
		}
		schedule(m, 0, []int{2, 2, 2, 1}, []float64{0.9, 0.9, 0.8, 0.5})
		for _, slot := range touched {
			switch m {
			case 19:
				hold(m, slot, 1)
			case 20:
				hold(m, slot, 0)
			case 21:
				release(m, slot)
			}
		}
		closeMinute(m, float64(m))
		if m == 20 {
			telemetry.ObserveLifecycleEnd(obs, telemetry.DeregisterSample{Minute: 20, Function: 256, Name: "burst-251"})
		}
	}
}

// TestObserverOutputPins replays pinStream into pulsed's default observer
// chain and compares what the API serves from it — /metrics, /events,
// /decisions, /why and the recorder's /timeseries — byte for byte with files
// rendered by the implementation the slot-indexed observer state replaced.
// The observers keep no map and no per-sample copy the old ones had; these
// files are what says the operator cannot tell.
func TestObserverOutputPins(t *testing.T) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1, 2, 3}
	names := []string{"fn-0", "fn-1", "fn-2", "fn-3"}
	tel, err := telemetry.New(telemetry.Config{EventCapacity: 96})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := provenance.NewRecorder(provenance.RecorderConfig{Catalog: cat, Assignment: asg, Names: names, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	pinStream(telemetry.Multi(tel, prov), cat)

	// The API needs a runtime for its own counters; it is never stepped, and
	// the observers are fed by the script alone.
	rt := newFixedRuntime(t, cat, asg)
	defer rt.Close()
	api, err := NewInstrumentedAPI(rt, tel)
	if err != nil {
		t.Fatal(err)
	}
	api.AttachProvenance(prov)

	files := map[string][]string{
		"metrics.txt": {"/metrics"},
		"events.txt": {
			"/events?limit=40", "/events?since=1150&limit=3", "/events?kind=schedule&limit=4", "/events?fn=0",
			"/events?kind=register&limit=2", "/decisions",
		},
		"why.txt": {
			"/why?fn=fn-0", "/why?fn=fn-0&n=2", "/why?fn=fn-1", "/why?fn=fn-2", "/why?fn=fn-3",
			"/why?fn=burst-250", "/why?fn=burst-251", "/why?fn=burst-252", "/why?fn=burst-1099", "/why?fn=burst-7",
			"/why?fn=fn-0&minute=3", "/why?fn=fn-0&minute=24", "/why?fn=fn-0&minute=21", "/why?fn=fn-0&minute=30",
			"/why?fn=fn-1&minute=3", "/why?fn=fn-1&minute=9", "/why?fn=fn-1&minute=13", "/why?fn=fn-1&minute=16",
			"/why?fn=fn-2&minute=3", "/why?fn=fn-2&minute=0", "/why?fn=fn-2&minute=20", "/why?fn=nobody",
			"/why?fn=fn-1&minute=2", "/why?fn=fn-1&minute=3", "/why?fn=fn-0&minute=23", "/why?fn=burst-251&minute=21",
		},
		"timeseries.txt": {
			"/timeseries?metric=step_latency_us", "/timeseries?metric=seqlock_retries&window=5",
		},
	}
	for file, targets := range files {
		var got bytes.Buffer
		for _, target := range targets {
			w := httptest.NewRecorder()
			api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			fmt.Fprintf(&got, "== GET %s -> %d\n%s", target, w.Code, w.Body.Bytes())
		}
		path := filepath.Join("testdata", "observer_pins", file)
		if *updateObserverPins {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing pin (captured with -update-observer-pins on the commit before the change): %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the pinned output:\n%s", file, firstDiff(got.Bytes(), want))
		}
	}
}

// firstDiff shows the first line where got and want part ways.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
