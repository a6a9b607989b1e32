package runtime

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

func testSetup(t *testing.T) (*models.Catalog, models.Assignment) {
	t.Helper()
	cat := models.PaperCatalog()
	return cat, models.Assignment{0, 1, 2}
}

func newFixedRuntime(t *testing.T, cat *models.Catalog, asg models.Assignment) *Runtime {
	t.Helper()
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	cat, asg := testSetup(t)
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Catalog: cat, Assignment: asg}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(Config{Policy: p, Assignment: asg}); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := New(Config{Policy: p, Catalog: cat}); err == nil {
		t.Error("empty assignment accepted")
	}
	if _, err := New(Config{Policy: p, Catalog: cat, Assignment: asg, ExecScale: -1}); err == nil {
		t.Error("negative exec scale accepted")
	}
	_, err = New(Config{Policy: p, Catalog: cat, Assignment: asg, Mode: "striped"})
	if err == nil || !strings.Contains(err.Error(), ModeEpoch) || !strings.Contains(err.Error(), ModeSerial) {
		t.Errorf("Mode striped: err %v, want one naming %s and %s", err, ModeEpoch, ModeSerial)
	}
}

func TestColdThenWarmWithinMinute(t *testing.T) {
	cat, asg := testSetup(t)
	r := newFixedRuntime(t, cat, asg)

	inv, err := r.Invoke(0)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Cold {
		t.Error("first invocation should be cold")
	}
	gpt := cat.Families[0]
	if inv.Variant != gpt.Highest().Name {
		t.Errorf("cold variant = %q, want highest", inv.Variant)
	}
	if inv.ServiceSec != gpt.Highest().ColdServiceSec() {
		t.Errorf("cold service = %v, want %v", inv.ServiceSec, gpt.Highest().ColdServiceSec())
	}
	// Second invocation in the same minute reuses the cold-started pod.
	inv2, err := r.Invoke(0)
	if err != nil {
		t.Fatal(err)
	}
	if inv2.Cold {
		t.Error("second invocation in the minute should be warm")
	}
	if inv2.ServiceSec != gpt.Highest().ExecSec {
		t.Errorf("warm service = %v, want exec only", inv2.ServiceSec)
	}
}

// TestInvocationSamplesAtMinuteBarrier pins the one invocation feed: Invoke
// delivers nothing, and the Step closing a minute — or the Deregister of a
// slot invoked in it — delivers each function-minute as the engine does, a
// cold sample of Count 1 first when the minute began cold, then one warm
// sample for the rest, in ascending slot order.
func TestInvocationSamplesAtMinuteBarrier(t *testing.T) {
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			cat, asg := testSetup(t)
			rec := &telemetry.Recorder{}
			p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Observer: rec, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sample := func(m, fn int, cold bool, n int) telemetry.InvocationSample {
				v := cat.Families[asg[fn]].Highest()
				s := telemetry.InvocationSample{Minute: m, Function: fn, Variant: v.Name, Cold: cold, Count: n, ServiceSec: v.ExecSec, AccuracyPct: v.AccuracyPct}
				if cold {
					s.ServiceSec = v.ColdServiceSec()
				}
				return s
			}
			invoke := func(fn, n int) {
				for i := 0; i < n; i++ {
					if _, err := r.Invoke(fn); err != nil {
						t.Fatal(err)
					}
				}
			}
			expect := func(when string, want ...telemetry.InvocationSample) {
				t.Helper()
				if !reflect.DeepEqual(rec.Invocations, want) {
					t.Fatalf("%s: invocation samples\n%+v\nwant\n%+v", when, rec.Invocations, want)
				}
			}
			invoke(2, 3)
			invoke(0, 1)
			expect("after minute 0's Invokes")
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
			m0 := []telemetry.InvocationSample{sample(0, 0, true, 1), sample(0, 2, true, 1), sample(0, 2, false, 2)}
			expect("after minute 0's Step", m0...)

			invoke(0, 4) // kept alive since minute 0
			invoke(1, 2)
			expect("after minute 1's Invokes", m0...)
			if err := r.Deregister(r.FunctionName(1)); err != nil {
				t.Fatal(err)
			}
			m1 := append(m0, sample(1, 1, true, 1), sample(1, 1, false, 1))
			expect("after Deregister", m1...)
			if len(rec.Deregisters) != 1 {
				t.Fatalf("%d deregister samples, want 1", len(rec.Deregisters))
			}
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
			expect("after minute 1's Step", append(m1, sample(1, 0, false, 4))...)
		})
	}
}

func TestKeepAliveAcrossMinutes(t *testing.T) {
	cat, asg := testSetup(t)
	r := newFixedRuntime(t, cat, asg)
	if _, err := r.Invoke(0); err != nil {
		t.Fatal(err)
	}
	r.Step() // minute 1: fixed policy keeps function 0 alive
	if v, err := r.AliveVariant(0); err != nil || v != cat.Families[0].NumVariants()-1 {
		t.Errorf("alive variant = %d, %v; want highest", v, err)
	}
	inv, err := r.Invoke(0)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Cold {
		t.Error("invocation within keep-alive window should be warm")
	}
	if inv.Minute != 1 {
		t.Errorf("minute = %d, want 1", inv.Minute)
	}
	// Function 1 was never invoked: nothing alive.
	if v, err := r.AliveVariant(1); err != nil || v != cluster.NoVariant {
		t.Errorf("idle function alive variant = %d, %v", v, err)
	}
	// 11 quiet minutes later the window has lapsed.
	for i := 0; i < 11; i++ {
		r.Step()
	}
	inv, err = r.Invoke(0)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Cold {
		t.Error("invocation after window lapse should be cold")
	}
}

func TestInvokeErrors(t *testing.T) {
	cat, asg := testSetup(t)
	r := newFixedRuntime(t, cat, asg)
	if _, err := r.Invoke(-1); err == nil {
		t.Error("negative function accepted")
	}
	if _, err := r.Invoke(99); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := r.AliveVariant(99); err == nil {
		t.Error("unknown function alive query accepted")
	}
	if _, err := r.FamilyOf(99); err == nil {
		t.Error("unknown function family query accepted")
	}
	fam, err := r.FamilyOf(1)
	if err != nil || fam.Name != cat.Families[1].Name {
		t.Errorf("FamilyOf = %v, %v", fam.Name, err)
	}
	if r.NumFunctions() != 3 {
		t.Errorf("NumFunctions = %d", r.NumFunctions())
	}
}

func TestStatsAccumulate(t *testing.T) {
	cat, asg := testSetup(t)
	r := newFixedRuntime(t, cat, asg)
	if _, err := r.Invoke(0); err != nil {
		t.Fatal(err)
	}
	r.Step()
	if _, err := r.Invoke(0); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Invocations != 2 || s.ColdStarts != 1 || s.WarmStarts != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Minute != 1 {
		t.Errorf("minute = %d", s.Minute)
	}
	if s.KeepAliveCostUSD <= 0 {
		t.Error("keep-alive cost not accumulating")
	}
	if s.CurrentKaMMB != cat.Families[0].Highest().MemoryMB {
		t.Errorf("current KaM = %v", s.CurrentKaMMB)
	}
	if s.MeanAccuracyPct() <= 0 {
		t.Error("accuracy not accumulating")
	}
	if (Stats{}).MeanAccuracyPct() != 0 {
		t.Error("empty stats accuracy should be 0")
	}
}

func TestExecScaleSleeps(t *testing.T) {
	cat, asg := testSetup(t)
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewManualClock(time.Unix(0, 0))
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: clock, ExecScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := r.Invoke(0)
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(inv.ServiceSec * float64(time.Second))
	if got := clock.now.Sub(time.Unix(0, 0)); got != want {
		t.Errorf("clock advanced %v, want %v", got, want)
	}
}

// The live runtime and the offline simulator must agree: replaying the same
// trace through both with the same (deterministic) policy yields identical
// warm/cold/service/accuracy accounting — bit for bit, since both count into
// one ledger shape and price it in one order.
func TestReplayMatchesOfflineSimulator(t *testing.T) {
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 15, Horizon: 6 * 60})
	if err != nil {
		t.Fatal(err)
	}
	cat := models.PaperCatalog()
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}

	// Offline.
	pOff, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := cluster.Run(cluster.Config{Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()}, pOff)
	if err != nil {
		t.Fatal(err)
	}

	// Live replay.
	pLive, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: pLive, Clock: NewManualClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < tr.Horizon; m++ {
		for fn := range tr.Functions {
			for n := 0; n < tr.Functions[fn].Counts[m]; n++ {
				if _, err := r.Invoke(fn); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	live := r.Stats()

	type totals struct {
		Invocations, WarmStarts, ColdStarts int
		ServiceSec, AccuracySumPct          float64
	}
	got := totals{live.Invocations, live.WarmStarts, live.ColdStarts, live.TotalServiceSec, live.AccuracySumPct}
	want := totals{offline.Invocations, offline.WarmStarts, offline.ColdStarts, offline.TotalServiceSec, offline.AccuracySumPct}
	if got != want {
		t.Errorf("live totals %+v, offline %+v", got, want)
	}
	// The replay charges one extra minute (the Step after the final trace
	// minute opens minute `horizon`); costs otherwise match.
	if live.KeepAliveCostUSD < offline.KeepAliveCostUSD {
		t.Errorf("live cost %v below offline %v", live.KeepAliveCostUSD, offline.KeepAliveCostUSD)
	}
	maxMinute := cluster.DefaultCostModel().KeepAliveUSDPerMinute(64 * 1024)
	if live.KeepAliveCostUSD-offline.KeepAliveCostUSD > maxMinute {
		t.Errorf("cost gap %v exceeds one minute's worth", live.KeepAliveCostUSD-offline.KeepAliveCostUSD)
	}
}

func TestTicker(t *testing.T) {
	cat, asg := testSetup(t)
	r := newFixedRuntime(t, cat, asg)
	if err := Ticker(context.Background(), nil, time.Millisecond); err == nil {
		t.Error("nil runtime accepted")
	}
	if err := Ticker(context.Background(), r, 0); err == nil {
		t.Error("zero interval accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Ticker(ctx, r, time.Millisecond) }()
	for r.Minute() < 3 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("ticker err = %v", err)
	}
	if r.Minute() < 3 {
		t.Errorf("ticker advanced only to minute %d", r.Minute())
	}
}

// Concurrency: parallel invocations across functions must not race or lose
// counts (run with -race).
func TestConcurrentInvocations(t *testing.T) {
	cat, asg := testSetup(t)
	r := newFixedRuntime(t, cat, asg)
	const perFn = 50
	var wg sync.WaitGroup
	for fn := 0; fn < len(asg); fn++ {
		wg.Add(1)
		go func(fn int) {
			defer wg.Done()
			for i := 0; i < perFn; i++ {
				if _, err := r.Invoke(fn); err != nil {
					t.Error(err)
					return
				}
			}
		}(fn)
	}
	// A stepper runs concurrently, advancing minutes.
	stop := make(chan struct{})
	var stepper sync.WaitGroup
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Step()
			}
		}
	}()
	wg.Wait()
	close(stop)
	stepper.Wait()
	if got := r.Stats().Invocations; got != perFn*len(asg) {
		t.Errorf("invocations = %d, want %d", got, perFn*len(asg))
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock(time.Unix(100, 0))
	if !c.now.Equal(time.Unix(100, 0)) {
		t.Error("start time wrong")
	}
	c.Sleep(5 * time.Second)
	if !c.now.Equal(time.Unix(105, 0)) {
		t.Error("sleep did not advance")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative advance should panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestWallClockCompression(t *testing.T) {
	w := WallClock{Compression: 1000}
	start := time.Now()
	w.Sleep(200 * time.Millisecond) // compressed to 200µs
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("compressed sleep took %v", elapsed)
	}
}

// TestRuntimeCloseShardedPolicy: Close succeeds and is idempotent with a
// sharded PULSE controller and with a plain policy.
func TestRuntimeCloseShardedPolicy(t *testing.T) {
	cat, asg := testSetup(t)
	ctrl, err := core.New(core.Config{Catalog: cat, Assignment: asg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: ctrl, Clock: NewManualClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Invoke(0); err != nil {
		t.Fatal(err)
	}
	r.Step()
	if err := r.Close(); err != nil {
		t.Fatalf("Close with sharded controller: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	fixed := newFixedRuntime(t, cat, asg)
	if err := fixed.Close(); err != nil {
		t.Fatalf("Close with non-closer policy: %v", err)
	}
}

// TestInvokeAfterClose: Close must flip the runtime into a terminal state
// where Invoke and Step return ErrClosed instead of calling into the
// policy, while the read-only surface stays available for final reporting,
// in both serving modes.
func TestInvokeAfterClose(t *testing.T) {
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			cat, asg := testSetup(t)
			ctrl, err := core.New(core.Config{Catalog: cat, Assignment: asg, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(Config{Catalog: cat, Assignment: asg, Policy: ctrl, Clock: NewManualClock(time.Unix(0, 0)), Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Invoke(0); err != nil {
				t.Fatal(err)
			}
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Invoke(0); !errors.Is(err, ErrClosed) {
				t.Errorf("Invoke after Close = %v, want ErrClosed", err)
			}
			if err := r.Step(); !errors.Is(err, ErrClosed) {
				t.Errorf("Step after Close = %v, want ErrClosed", err)
			}
			// The read-only surface survives for final reporting.
			if st := r.Stats(); st.Invocations != 1 {
				t.Errorf("Stats after Close = %+v", st)
			}
			if r.Minute() != 1 {
				t.Errorf("Minute after Close = %d", r.Minute())
			}
			if _, err := r.AliveVariant(0); err != nil {
				t.Errorf("AliveVariant after Close: %v", err)
			}
			if err := r.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

// TestCloseNeverStartedRuntime: closing before any Invoke must not start
// the policy, and a later Invoke must not either.
func TestCloseNeverStartedRuntime(t *testing.T) {
	cat, asg := testSetup(t)
	rec := &telemetry.Recorder{}
	p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Invoke(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Invoke after Close = %v, want ErrClosed", err)
	}
	if len(rec.KeepAlives) != 0 || len(rec.Minutes) != 0 {
		t.Errorf("closed runtime started its policy: %d keep-alive, %d minute samples",
			len(rec.KeepAlives), len(rec.Minutes))
	}
}

// TestInvokeDuringShutdown races invokers against Close (run with -race):
// every invocation must either complete normally or fail with ErrClosed —
// never panic, deadlock, or reach the policy after Close — and the counters
// must account for exactly the successes.
func TestInvokeDuringShutdown(t *testing.T) {
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			cat, asg := testSetup(t)
			ctrl, err := core.New(core.Config{Catalog: cat, Assignment: asg, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(Config{Catalog: cat, Assignment: asg, Policy: ctrl, Clock: NewManualClock(time.Unix(0, 0)), Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			var successes atomic.Int64
			var wg sync.WaitGroup
			for fn := 0; fn < len(asg); fn++ {
				wg.Add(1)
				go func(fn int) {
					defer wg.Done()
					for {
						_, err := r.Invoke(fn)
						if err == nil {
							successes.Add(1)
							continue
						}
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Invoke during shutdown: %v", err)
						}
						return
					}
				}(fn)
			}
			go func() {
				time.Sleep(2 * time.Millisecond)
				if err := r.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			wg.Wait()
			if got := int64(r.Stats().Invocations); got != successes.Load() {
				t.Errorf("stats count %d successes, invokers saw %d", got, successes.Load())
			}
		})
	}
}

// TestConcurrentInvokeStepStats hammers Invoke, Step, and Stats from
// concurrent goroutines in both serving modes (run with -race):
// counters must end exact, and every Stats snapshot must be internally
// consistent (warm + cold = invocations).
func TestConcurrentInvokeStepStats(t *testing.T) {
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			cat, asg := testSetup(t)
			p, err := policy.NewFixed(cat, asg, 10, policy.QualityHighest)
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			const perWorker = 200
			workers := 2 * len(asg) // two goroutines per function: stripes contend too
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					fn := w % len(asg)
					for i := 0; i < perWorker; i++ {
						if _, err := r.Invoke(fn); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			stop := make(chan struct{})
			var aux sync.WaitGroup
			aux.Add(2)
			go func() { // stepper
				defer aux.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := r.Step(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			go func() { // stats reader
				defer aux.Done()
				for {
					select {
					case <-stop:
						return
					default:
						s := r.Stats()
						if s.WarmStarts+s.ColdStarts != s.Invocations {
							t.Errorf("inconsistent snapshot: %+v", s)
							return
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			aux.Wait()
			if got := r.Stats().Invocations; got != perWorker*workers {
				t.Errorf("invocations = %d, want %d", got, perWorker*workers)
			}
		})
	}
}

// TestWallClockSlowMotion: Compression in (0, 1) stretches simulated time
// rather than silently running in real time, and negative values fall back
// to real time as documented.
func TestWallClockSlowMotion(t *testing.T) {
	w := WallClock{Compression: 0.25}
	start := time.Now()
	w.Sleep(2 * time.Millisecond) // stretched to 8ms
	if elapsed := time.Since(start); elapsed < 6*time.Millisecond {
		t.Errorf("slow-motion sleep returned after %v, want ≥ ~8ms", elapsed)
	}

	w = WallClock{Compression: -5} // treated as unset: real time
	start = time.Now()
	w.Sleep(time.Millisecond)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("negative compression slept %v", elapsed)
	}
}
