package runtime

// The differential equivalence harness is the proof obligation behind the
// serving path: for a matrix of trace workloads and policies, a serial
// (single global lock) runtime replayed sequentially and an epoch
// (lock-free fast path) runtime replayed with one goroutine per function
// must produce identical Stats and identical per-function invocation
// streams — and, when instrumented,
// identical barrier-ordered observer streams. CI runs this suite under
// -race (the sharded job's 'Differential|Sharded' regex picks it up, and
// the stress job repeats it at GOMAXPROCS 1 and 4).

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// runtimeWorkload is one trace of the equivalence matrix.
type runtimeWorkload struct {
	name string
	tr   *trace.Trace
}

// runtimeWorkloads builds the trace matrix: the default Azure-like mix, a
// bursty/sporadic mix scaled to 24 functions, and a trace round-tripped
// through the Azure Functions CSV format — the same three shapes the
// sharded-controller harness proves equivalence on.
func runtimeWorkloads(t testing.TB) []runtimeWorkload {
	t.Helper()
	azureLike, err := trace.Generate(trace.GeneratorConfig{Seed: 7, Horizon: 6 * 60})
	if err != nil {
		t.Fatal(err)
	}

	var scaled []trace.Archetype
	for i := 0; i < 4; i++ {
		scaled = append(scaled,
			trace.Bursty{BurstsPerDay: 12, BurstLen: 7, BurstRate: 4, QuietRate: 0.05},
			trace.Sporadic{MeanGap: 37},
			trace.Periodic{Period: 11, Jitter: 2},
			trace.Poisson{Rate: 0.4},
			trace.HeavyTailed{Alpha: 1.6, Scale: 13},
			trace.Diurnal{Base: 0.02, Amplitude: 1.2, PeakMinute: 120},
		)
	}
	burstySporadic, err := trace.Generate(trace.GeneratorConfig{Seed: 11, Horizon: 4 * 60, Archetypes: scaled})
	if err != nil {
		t.Fatal(err)
	}

	// The CSV day-file format requires whole days.
	seed, err := trace.Generate(trace.GeneratorConfig{Seed: 23, Horizon: trace.MinutesPerDay})
	if err != nil {
		t.Fatal(err)
	}
	var day bytes.Buffer
	if err := trace.WriteAzureCSV(seed, &day); err != nil {
		t.Fatal(err)
	}
	azureCSV, err := trace.ReadAzureCSV(trace.AzureReadOptions{}, bytes.NewReader(day.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	return []runtimeWorkload{
		{name: "azure-like-6h", tr: azureLike},
		{name: "bursty-sporadic-24fn", tr: burstySporadic},
		{name: "azure-csv-derived", tr: azureCSV},
	}
}

// runtimePolicies returns fresh-policy constructors: every runtime under
// comparison needs its own policy instance (the runtime owns it).
func runtimePolicies(cat *models.Catalog, asg models.Assignment) map[string]func(t testing.TB, obs telemetry.Observer) cluster.Policy {
	return map[string]func(t testing.TB, obs telemetry.Observer) cluster.Policy{
		"pulse": func(t testing.TB, obs telemetry.Observer) cluster.Policy {
			p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"pulse-sharded": func(t testing.TB, obs telemetry.Observer) cluster.Policy {
			p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Observer: obs, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"fixed": func(t testing.TB, obs telemetry.Observer) cluster.Policy {
			p, err := policy.NewFixed(cat, asg, 0, policy.QualityHighest)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
}

// replayCapture replays a trace and records every invocation outcome,
// grouped per function. Sequential mode issues invocations in trace order;
// parallel mode issues each minute's invocations from one goroutine per
// function (each goroutine appends only to its own function's stream, so
// the capture itself is race-free).
func replayCapture(t *testing.T, r *Runtime, tr *trace.Trace, parallel bool) (Stats, [][]Invocation) {
	t.Helper()
	streams := make([][]Invocation, len(tr.Functions))
	for tm := 0; tm < tr.Horizon; tm++ {
		if parallel {
			var wg sync.WaitGroup
			for fn := range tr.Functions {
				n := tr.Functions[fn].Counts[tm]
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(fn, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						inv, err := r.Invoke(fn)
						if err != nil {
							t.Error(err)
							return
						}
						streams[fn] = append(streams[fn], inv)
					}
				}(fn, n)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
		} else {
			for fn := range tr.Functions {
				for i := 0; i < tr.Functions[fn].Counts[tm]; i++ {
					inv, err := r.Invoke(fn)
					if err != nil {
						t.Fatal(err)
					}
					streams[fn] = append(streams[fn], inv)
				}
			}
		}
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return r.Stats(), streams
}

// TestDifferentialRuntimeModes drives a serial runtime sequentially and an
// epoch runtime with per-function goroutines over the same workloads and
// policies, requiring reflect.DeepEqual on the final Stats (float sums
// included — both modes accumulate per function, in function order) and on
// every per-function invocation stream. Run under -race, this comparison is
// the serving path's equivalence proof: the serial mode is the ground
// truth, and the lock-free epoch mode must match it exactly.
func TestDifferentialRuntimeModes(t *testing.T) {
	cat := models.PaperCatalog()
	for _, wl := range runtimeWorkloads(t) {
		asg := make(models.Assignment, len(wl.tr.Functions))
		for i := range asg {
			asg[i] = i % len(cat.Families)
		}
		for polName, mkPolicy := range runtimePolicies(cat, asg) {
			t.Run(fmt.Sprintf("%s/%s", wl.name, polName), func(t *testing.T) {
				mk := func(mode string) *Runtime {
					r, err := New(Config{
						Catalog:    cat,
						Assignment: asg,
						Policy:     mkPolicy(t, nil),
						Clock:      NewManualClock(time.Unix(0, 0)),
						Mode:       mode,
					})
					if err != nil {
						t.Fatal(err)
					}
					if r.Mode() != mode {
						t.Fatalf("mode = %q, want %q", r.Mode(), mode)
					}
					return r
				}
				serial := mk(ModeSerial)
				defer serial.Close()
				serialStats, serialStreams := replayCapture(t, serial, wl.tr, false)

				epoch := mk(ModeEpoch)
				defer epoch.Close()
				stats, streams := replayCapture(t, epoch, wl.tr, true)
				if !reflect.DeepEqual(serialStats, stats) {
					t.Errorf("stats diverge:\nserial: %+v\nepoch:  %+v", serialStats, stats)
				}
				for fn := range serialStreams {
					if !reflect.DeepEqual(serialStreams[fn], streams[fn]) {
						t.Errorf("function %d invocation stream diverges (%d vs %d invocations)",
							fn, len(serialStreams[fn]), len(streams[fn]))
					}
				}
			})
		}
	}
}

// TestDifferentialObserverStream attaches Recorders to replays in every
// mode and checks the observer seam's ordering guarantees: keep-alive and
// minute samples are emitted inside the minute write window and must
// arrive in the identical order with identical payloads in every mode;
// invocation samples may interleave across functions under parallel
// replay, but a stable sort by (minute, function) — which preserves each
// function's own emission order — must reconstruct the exact serial
// stream. Sequential replays (no goroutines) must reproduce the serial
// invocation stream exactly, unsorted.
func TestDifferentialObserverStream(t *testing.T) {
	cat := models.PaperCatalog()
	wl := runtimeWorkloads(t)[0]
	asg := make(models.Assignment, len(wl.tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	run := func(mode string, parallel bool) *telemetry.Recorder {
		rec := &telemetry.Recorder{}
		p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{
			Catalog:    cat,
			Assignment: asg,
			Policy:     p,
			Clock:      NewManualClock(time.Unix(0, 0)),
			Observer:   rec,
			Mode:       mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		replayCapture(t, r, wl.tr, parallel)
		return rec
	}
	canon := func(s []telemetry.InvocationSample) []telemetry.InvocationSample {
		out := append([]telemetry.InvocationSample(nil), s...)
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].Minute != out[j].Minute {
				return out[i].Minute < out[j].Minute
			}
			return out[i].Function < out[j].Function
		})
		return out
	}

	serial := run(ModeSerial, false)
	for _, cmp := range []struct {
		name     string
		mode     string
		parallel bool
	}{
		{"epoch-parallel", ModeEpoch, true},
		{"epoch-sequential", ModeEpoch, false},
	} {
		got := run(cmp.mode, cmp.parallel)
		if !reflect.DeepEqual(serial.KeepAlives, got.KeepAlives) {
			t.Errorf("%s: keep-alive streams diverge: %d vs %d samples", cmp.name, len(serial.KeepAlives), len(got.KeepAlives))
		}
		if !reflect.DeepEqual(serial.Minutes, got.Minutes) {
			t.Errorf("%s: minute streams diverge: %d vs %d samples", cmp.name, len(serial.Minutes), len(got.Minutes))
		}
		if cmp.parallel {
			if !reflect.DeepEqual(canon(serial.Invocations), canon(got.Invocations)) {
				t.Errorf("%s: invocation sample streams diverge under canonical order: %d vs %d samples",
					cmp.name, len(serial.Invocations), len(got.Invocations))
			}
		} else if !reflect.DeepEqual(serial.Invocations, got.Invocations) {
			t.Errorf("%s: invocation sample streams diverge: %d vs %d samples",
				cmp.name, len(serial.Invocations), len(got.Invocations))
		}
	}
}

// TestDifferentialReplayDrivers cross-checks the exported drivers the
// harness builds on: ReplayTrace and ReplayTraceParallel over the same
// trace and policy must land on identical Stats.
func TestDifferentialReplayDrivers(t *testing.T) {
	cat := models.PaperCatalog()
	wl := runtimeWorkloads(t)[2]
	asg := make(models.Assignment, len(wl.tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	run := func(parallel bool) Stats {
		p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0))})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		drive := ReplayTrace
		if parallel {
			drive = ReplayTraceParallel
		}
		if err := drive(context.Background(), r, wl.tr); err != nil {
			t.Fatal(err)
		}
		return r.Stats()
	}
	sequential := run(false)
	parallel := run(true)
	if !reflect.DeepEqual(sequential, parallel) {
		t.Errorf("driver stats diverge:\nsequential: %+v\nparallel:   %+v", sequential, parallel)
	}
}
