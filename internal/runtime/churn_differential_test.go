package runtime

// Churn differential harness for the live runtime: replaying a churn trace
// through Register/Invoke/Deregister/Step must be equivalent across
// serving modes (serial vs epoch, sequential vs per-function-goroutine
// invokes) and — at the attribution layer — equivalent to the cluster
// engine's churn path replaying the same trace. CI's 'Differential|Sharded'
// -race regex picks this suite up, so every comparison here is also a race
// check on the lifecycle path.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// churnRuntimeWorkload generates the runtime churn trace: an Azure-like mix
// over six hours with half the functions given bounded lifetimes.
func churnRuntimeWorkload(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 31, Horizon: 6 * 60, Churn: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasChurn() {
		t.Fatal("churn workload generated no churn; pick a different seed")
	}
	return tr
}

// churnRuntimePolicies mirrors runtimePolicies but constructs each policy
// with the minute-0 population of a churn trace, the way a DynamicPolicy
// must start.
func churnRuntimePolicies(t testing.TB, cat *models.Catalog, tr *trace.Trace) (map[string]func(obs telemetry.Observer) cluster.Policy, []string, models.Assignment) {
	t.Helper()
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	names, initAsg, err := cluster.InitialPopulation(tr, asg)
	if err != nil {
		t.Fatal(err)
	}
	mk := map[string]func(obs telemetry.Observer) cluster.Policy{
		"pulse": func(obs telemetry.Observer) cluster.Policy {
			p, err := core.New(core.Config{Catalog: cat, Assignment: initAsg, Names: names, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"pulse-sharded": func(obs telemetry.Observer) cluster.Policy {
			p, err := core.New(core.Config{Catalog: cat, Assignment: initAsg, Names: names, Observer: obs, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"fixed": func(telemetry.Observer) cluster.Policy {
			p, err := policy.NewFixedNamed(cat, initAsg, cluster.DefaultKeepAliveWindow, policy.QualityHighest, names)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	return mk, names, initAsg
}

// replayChurn replays a churn trace against a live runtime, registering and
// deregistering functions at the same points the cluster engine's churn
// path does. Per minute t: invoke every live function's counts (in trace
// order, or one goroutine per function when parallel), then — unless t is
// the final minute — retire functions whose lifetime ends at t+1 (slot
// order), register functions starting at t+1 (trace order), and Step. The
// Horizon-1 Steps leave minute Horizon-1 open, exactly like the engine, so
// attribution from both paths is comparable. Returns the final Stats and
// the per-slot invocation streams.
func replayChurn(t *testing.T, r *Runtime, tr *trace.Trace, parallel bool) (Stats, [][]Invocation) {
	t.Helper()
	// slotOf maps trace function index → issued runtime slot. The minute-0
	// population occupies slots 0..k-1 in trace order.
	slotOf := make([]int, len(tr.Functions))
	for i := range slotOf {
		slotOf[i] = -1
	}
	next := 0
	for i := range tr.Functions {
		if tr.Functions[i].Start == 0 {
			slotOf[i] = next
			next++
		}
	}
	var streams [][]Invocation
	grow := func() {
		for len(streams) < next {
			streams = append(streams, nil)
		}
	}
	grow()

	for tm := 0; tm < tr.Horizon; tm++ {
		// Invoke in slot order — the order the engine's serve loop visits
		// functions, so sequential replays feed observers identically
		// (float accumulators sum in the same association order).
		type job struct{ ti, slot, n int }
		var jobs []job
		for ti := range tr.Functions {
			f := &tr.Functions[ti]
			if !f.LiveAt(tm, tr.Horizon) || f.Counts[tm] == 0 {
				continue
			}
			jobs = append(jobs, job{ti: ti, slot: slotOf[ti], n: f.Counts[tm]})
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].slot < jobs[j].slot })
		if parallel {
			var wg sync.WaitGroup
			for _, j := range jobs {
				wg.Add(1)
				go func(j job) {
					defer wg.Done()
					for i := 0; i < j.n; i++ {
						inv, err := r.Invoke(j.slot)
						if err != nil {
							t.Error(err)
							return
						}
						streams[j.slot] = append(streams[j.slot], inv)
					}
				}(j)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
		} else {
			for _, j := range jobs {
				for i := 0; i < j.n; i++ {
					inv, err := r.Invoke(j.slot)
					if err != nil {
						t.Fatal(err)
					}
					streams[j.slot] = append(streams[j.slot], inv)
				}
			}
		}

		if tm+1 >= tr.Horizon {
			break
		}
		// Lifecycle barrier for minute tm+1: departures in slot order, then
		// arrivals in trace order — the engine's ordering.
		type departure struct{ slot, ti int }
		var deps []departure
		for ti := range tr.Functions {
			if slotOf[ti] >= 0 && tr.Functions[ti].EndMinute(tr.Horizon) == tm+1 {
				deps = append(deps, departure{slot: slotOf[ti], ti: ti})
			}
		}
		sort.Slice(deps, func(i, j int) bool { return deps[i].slot < deps[j].slot })
		for _, d := range deps {
			if err := r.Deregister(tr.Functions[d.ti].Name); err != nil {
				t.Fatal(err)
			}
		}
		for ti := range tr.Functions {
			if tr.Functions[ti].Start == tm+1 {
				slot, err := r.Register(tr.Functions[ti].Name, assignFor(tr, ti, r))
				if err != nil {
					t.Fatal(err)
				}
				if slot != next {
					t.Fatalf("minute %d: runtime issued slot %d for %q, replay expected %d", tm+1, slot, tr.Functions[ti].Name, next)
				}
				slotOf[ti] = slot
				next++
				grow()
			}
		}
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return r.Stats(), streams
}

// assignFor reproduces the trace-indexed uniform assignment for a late
// arrival: family = trace index mod families.
func assignFor(tr *trace.Trace, ti int, r *Runtime) int {
	return ti % len(r.cfg.Catalog.Families)
}

// TestDifferentialChurnRuntime drives the churn workload through a serial
// runtime replayed sequentially and, for the epoch mode, a sequential and
// a per-function-goroutine replay, for each policy. All three must land on
// identical Stats and identical per-slot
// invocation streams; the sequential replays must additionally produce
// identical observer streams (lifecycle samples included).
func TestDifferentialChurnRuntime(t *testing.T) {
	cat := models.PaperCatalog()
	tr := churnRuntimeWorkload(t)
	policies, names, initAsg := churnRuntimePolicies(t, cat, tr)
	for polName, mkPolicy := range policies {
		t.Run(polName, func(t *testing.T) {
			run := func(mode string, parallel bool) (Stats, [][]Invocation, *telemetry.Recorder) {
				rec := &telemetry.Recorder{}
				r, err := New(Config{
					Catalog:    cat,
					Assignment: initAsg,
					Names:      names,
					Policy:     mkPolicy(nil),
					Clock:      NewManualClock(time.Unix(0, 0)),
					Observer:   rec,
					Mode:       mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				stats, streams := replayChurn(t, r, tr, parallel)
				return stats, streams, rec
			}
			baseStats, baseStreams, baseRec := run(ModeSerial, false)

			for _, cmp := range []struct {
				name     string
				mode     string
				parallel bool
			}{
				{"epoch-sequential", ModeEpoch, false},
				{"epoch-parallel", ModeEpoch, true},
			} {
				stats, streams, rec := run(cmp.mode, cmp.parallel)
				if !reflect.DeepEqual(stats, baseStats) {
					t.Errorf("%s stats diverge:\nserial: %+v\n%s: %+v", cmp.name, baseStats, cmp.name, stats)
				}
				if len(streams) != len(baseStreams) {
					t.Fatalf("%s issued %d slots, serial issued %d", cmp.name, len(streams), len(baseStreams))
				}
				for slot := range baseStreams {
					if !reflect.DeepEqual(streams[slot], baseStreams[slot]) {
						t.Errorf("%s: slot %d invocation stream diverges (%d vs %d invocations)",
							cmp.name, slot, len(streams[slot]), len(baseStreams[slot]))
					}
				}
				if cmp.parallel {
					continue
				}
				// Sequential replays must agree on the entire observer stream.
				for _, s := range []struct {
					kind      string
					got, want any
				}{
					{"invocations", rec.Invocations, baseRec.Invocations},
					{"keep-alives", rec.KeepAlives, baseRec.KeepAlives},
					{"minutes", rec.Minutes, baseRec.Minutes},
					{"registers", rec.Registers, baseRec.Registers},
					{"deregisters", rec.Deregisters, baseRec.Deregisters},
				} {
					if !reflect.DeepEqual(s.got, s.want) {
						t.Errorf("%s %s stream diverges from serial", cmp.name, s.kind)
					}
				}
			}
		})
	}
}

// TestDifferentialChurnAttribution is the cross-layer proof: the cluster
// engine's churn path and the live runtime's lifecycle path, fed the same
// churn trace and policy, must produce deeply equal attribution reports and
// time series. The runtime side runs in every serving mode.
func TestDifferentialChurnAttribution(t *testing.T) {
	cat := models.PaperCatalog()
	tr := churnRuntimeWorkload(t)
	policies, names, initAsg := churnRuntimePolicies(t, cat, tr)
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	cost := cluster.DefaultCostModel()
	newAcct := func() *attribution.Accountant {
		a, err := attribution.New(attribution.Config{Catalog: cat, Assignment: initAsg, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for polName, mkPolicy := range policies {
		t.Run(polName, func(t *testing.T) {
			simAcct := newAcct()
			if _, err := cluster.Run(cluster.Config{
				Trace: tr, Catalog: cat, Assignment: asg, Cost: cost, Observer: simAcct,
			}, mkPolicy(simAcct)); err != nil {
				t.Fatal(err)
			}
			simRep := simAcct.Report()

			for _, mode := range []struct {
				name     string
				mode     string
				parallel bool
			}{
				{"serial", ModeSerial, false},
				{"epoch", ModeEpoch, false},
				{"epoch-parallel", ModeEpoch, true},
			} {
				liveAcct := newAcct()
				r, err := New(Config{
					Catalog:    cat,
					Assignment: initAsg,
					Names:      names,
					Policy:     mkPolicy(liveAcct),
					Clock:      NewManualClock(time.Unix(0, 0)),
					Cost:       cost,
					Observer:   liveAcct,
					Mode:       mode.mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				replayChurn(t, r, tr, mode.parallel)
				r.Close()
				liveRep := liveAcct.Report()
				if !reflect.DeepEqual(simRep, liveRep) {
					t.Errorf("%s: engine and runtime attribution diverged\nengine total:  %+v\nruntime total: %+v",
						mode.name, simRep.Total, liveRep.Total)
				}
				// The report is priced from integer counters in a fixed order,
				// so it is arrival-order independent and must match in every
				// mode. The per-minute series additionally depend on float
				// accumulation order across functions within a minute, which a
				// per-function-goroutine replay does not fix — exact series
				// equality is required of the sequential modes only.
				if mode.parallel {
					continue
				}
				for _, name := range attribution.MetricNames() {
					m, err := attribution.ParseMetric(name)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(simAcct.Series(m, tr.Horizon, false), liveAcct.Series(m, tr.Horizon, false)) {
						t.Errorf("%s: series %s diverged between engine and runtime", mode.name, name)
					}
				}
			}
		})
	}
}

// TestChurnInvokeDeregistered pins the failure mode of serving a retired
// function: a client error wrapping ErrDeregistered, never a panic, and
// re-registering the name issues a fresh cold slot.
func TestChurnInvokeDeregistered(t *testing.T) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1}
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Invoke(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("fn-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Invoke(0); !errors.Is(err, ErrDeregistered) {
		t.Fatalf("invoking deregistered slot: err = %v, want ErrDeregistered", err)
	}
	if err := r.Deregister("fn-0"); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("double deregister: err = %v, want ErrUnknownFunction", err)
	}
	if _, err := r.Invoke(99); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("out-of-range invoke: err = %v, want ErrUnknownFunction", err)
	}
	slot, err := r.Register("fn-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slot != len(asg) {
		t.Fatalf("re-registered fn-0 got slot %d, want fresh slot %d", slot, len(asg))
	}
	inv, err := r.Invoke(slot)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Cold {
		t.Error("first invocation of a re-registered function was warm, want cold by construction")
	}
	if got, want := r.NumActive(), 2; got != want {
		t.Errorf("NumActive = %d, want %d", got, want)
	}
	if n, ok := r.LookupFunction("fn-0"); !ok || n != slot {
		t.Errorf("LookupFunction(fn-0) = %d, %v; want %d, true", n, ok, slot)
	}
}

// TestChurnLifecycleRaceClean hammers both runtime modes with
// concurrent invokes, minute steps, and register/deregister churn. Run
// under -race it proves the lifecycle path takes the exclusive barrier and
// the epoch write window correctly; the only acceptable invoke failures
// are the lifecycle sentinels.
func TestChurnLifecycleRaceClean(t *testing.T) {
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) { churnLifecycleRace(t, mode) })
	}
}

func churnLifecycleRace(t *testing.T, mode string) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1, 0, 1}
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const rounds = 60
	var wg sync.WaitGroup
	// Invokers hit both the stable population and the churning tail.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*4; i++ {
				fn := i % (len(asg) + 2)
				_, err := r.Invoke(fn)
				if err != nil && !errors.Is(err, ErrDeregistered) && !errors.Is(err, ErrUnknownFunction) && !errors.Is(err, ErrClosed) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Stepper advances minutes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := r.Step(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Churner registers and deregisters a rolling set of names.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("churner-%d", i)
			if _, err := r.Register(name, i%len(cat.Families)); err != nil {
				t.Error(err)
				return
			}
			if i >= 3 {
				if err := r.Deregister(fmt.Sprintf("churner-%d", i-3)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := r.Stats()
	if st.Invocations == 0 {
		t.Error("race harness served no invocations")
	}
	if got := r.NumFunctions() - r.NumActive(); got != rounds-3 {
		t.Errorf("tombstoned slots = %d, want %d", got, rounds-3)
	}
}
