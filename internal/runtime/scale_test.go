package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/alert"
	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
)

// newScaleRuntime builds a PULSE-managed runtime of the given population —
// the constructor shape RunScale sweeps.
func newScaleRuntime(t *testing.T) func(fns int) (*Runtime, error) {
	t.Helper()
	cat := models.PaperCatalog()
	return func(fns int) (*Runtime, error) {
		asg := make(models.Assignment, fns)
		for i := range asg {
			asg[i] = i % len(cat.Families)
		}
		p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
		if err != nil {
			return nil, err
		}
		return New(Config{
			Catalog:    cat,
			Assignment: asg,
			Policy:     p,
			Clock:      NewManualClock(time.Unix(0, 0)),
		})
	}
}

func TestRunScaleValidation(t *testing.T) {
	mk := newScaleRuntime(t)
	if _, err := RunScale(ScaleConfig{}); err == nil {
		t.Error("scale sweep without a constructor accepted")
	}
	if _, err := RunScale(ScaleConfig{NewRuntime: mk, Populations: []int{0}}); err == nil {
		t.Error("non-positive population accepted")
	}
	if _, err := RunScale(ScaleConfig{NewRuntime: mk, Populations: []int{10}, ActivePct: -1}); err == nil {
		t.Error("negative active percentage accepted")
	}
	if _, err := RunScale(ScaleConfig{NewRuntime: mk, Populations: []int{10}, ActivePct: 120}); err == nil {
		t.Error("active percentage above 100 accepted")
	}
	if _, err := RunScale(ScaleConfig{NewRuntime: mk, Populations: []int{10}, Minutes: -3}); err == nil {
		t.Error("negative minutes accepted")
	}
}

// TestRunScaleSmoke sweeps two tiny populations and checks every published
// field is populated and internally consistent.
func TestRunScaleSmoke(t *testing.T) {
	var progress int
	results, err := RunScale(ScaleConfig{
		Populations: []int{100, 400},
		ActivePct:   2,
		Minutes:     2,
		NewRuntime:  newScaleRuntime(t),
		Progress:    func(ScaleResult) { progress++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || progress != 2 {
		t.Fatalf("sweep produced %d results (%d progress calls), want 2", len(results), progress)
	}
	for i, n := range []int{100, 400} {
		r := results[i]
		if r.Functions != n || r.Mode != ModeEpoch {
			t.Errorf("cell %d: shape %+v, want %d functions in epoch mode", i, r, n)
		}
		if want := n * 2 / 100; r.ActiveFunctions != want {
			t.Errorf("cell %d: %d active functions, want %d", i, r.ActiveFunctions, want)
		}
		if r.HeapBytes == 0 || r.BytesPerFunction <= 0 {
			t.Errorf("cell %d: no heap measurement: %+v", i, r)
		}
		// Warmup + idle phase + active phase.
		if want := 1 + 2 + 2; r.MinutesStepped != want {
			t.Errorf("cell %d: stepped %d minutes, want %d", i, r.MinutesStepped, want)
		}
		if r.ActiveStepMicros <= 0 {
			t.Errorf("cell %d: active step latency not measured: %+v", i, r)
		}
	}
}

// TestSparseIdleStepZeroAllocs pins the runtime's sparse minute barrier at
// zero heap allocations on idle minutes, in both serving modes — both while
// recently-invoked slots still hold live plans (the barrier touches only
// the active set) and after the plans drain (the barrier touches nothing).
// Run by the CI alloc job.
func TestSparseIdleStepZeroAllocs(t *testing.T) {
	cat := models.PaperCatalog()
	const n = 512
	asg := make(models.Assignment, n)
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(Config{
				Catalog:    cat,
				Assignment: asg,
				Policy:     p,
				Clock:      NewManualClock(time.Unix(0, 0)),
				Mode:       mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, ok := any(p).(cluster.ActiveSetPolicy); !ok {
				t.Fatal("sparse path not engaged")
			}
			window := p.Config().Window

			// Warm: a few slots invoked over two minutes so plan rows, the
			// dirty chain, and every staging buffer reach capacity.
			hot := []int{0, n / 2, n - 1}
			for m := 0; m < 2; m++ {
				for _, fn := range hot {
					if _, err := r.Invoke(fn); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}

			// Phase 1: idle minutes with the hot slots' plans still live.
			// All runs stay inside the plan window, so no row compaction
			// (and no free-list growth) can land mid-measurement.
			if allocs := testing.AllocsPerRun(window-4, func() {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s idle Step with resident active set allocates %v/op, want 0", mode, allocs)
			}

			// Drain: the remaining plan minutes expire and compact (the
			// one-time free-list growth lands here, unmeasured).
			for i := 0; i < window+2; i++ {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}

			// Phase 2: fully-idle minutes over the drained population.
			if allocs := testing.AllocsPerRun(300, func() {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s fully-idle Step allocates %v/op, want 0", mode, allocs)
			}
		})
	}
}

// keepAliveCounter counts the keep-alive samples a chain is handed.
type keepAliveCounter struct {
	telemetry.Nop
	n int
}

func (c *keepAliveCounter) ObserveKeepAlive(telemetry.KeepAliveSample) { c.n++ }

// TestFullChainIdleStepNoAllocs is the scaling pin for the sparse KeepAlive
// contract: with pulsed's default observer chain attached (telemetry +
// provenance, here plus a sample counter), a minute Step over a million
// registered functions delivers exactly one keep-alive sample per holder or
// release edge — never one per slot — and a fully idle Step delivers none
// and allocates nothing: attaching observers must not make the step
// population-sized. Run by the CI alloc job.
func TestFullChainIdleStepNoAllocs(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	cat := models.PaperCatalog()
	asg := make(models.Assignment, n)
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := provenance.NewRecorder(provenance.RecorderConfig{
		Catalog: cat, Assignment: asg, Names: identity.DefaultNames(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	counter := &keepAliveCounter{}
	obs := telemetry.Multi(tel, prov, counter)
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Shards: 1, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Catalog:    cat,
		Assignment: asg,
		Policy:     p,
		Clock:      NewManualClock(time.Unix(0, 0)),
		Observer:   obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	hot := []int{0, n / 2, n - 1}
	holders := func() map[int]bool {
		held := map[int]bool{}
		for _, fn := range hot {
			v, err := r.AliveVariant(fn)
			if err != nil {
				t.Fatal(err)
			}
			if v != cluster.NoVariant {
				held[fn] = true
			}
		}
		return held
	}
	// stepCounted takes one Step and checks its keep-alive sample count
	// against the contract: |holders before ∪ holders after|. Only the hot
	// slots are ever invoked, so nothing else can hold.
	stepCounted := func() int {
		before, sent := holders(), counter.n
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
		owed := holders()
		for fn := range before {
			owed[fn] = true
		}
		if got := counter.n - sent; got != len(owed) {
			t.Fatalf("minute %d: %d keep-alive samples for a holder ∪ release set of %d (population %d)",
				r.Minute(), got, len(owed), n)
		}
		return len(owed)
	}

	delivered := 0
	for m := 0; m < 3; m++ {
		for _, fn := range hot {
			if _, err := r.Invoke(fn); err != nil {
				t.Fatal(err)
			}
		}
		delivered += stepCounted()
	}
	// Drain: the plans run out over the keep-alive window, each slot's last
	// sample being its release edge.
	for i := 0; i < p.Config().Window+2; i++ {
		delivered += stepCounted()
	}
	if delivered == 0 {
		t.Fatal("no keep-alive sample was ever delivered: the hot slots never held a variant")
	}
	if got := len(p.ActiveSlots()); got != 0 {
		t.Fatalf("active set holds %d slots after drain, want 0", got)
	}

	sent := counter.n
	if allocs := testing.AllocsPerRun(100, func() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("idle Step over %d slots with the full chain attached allocates %v/op, want 0", n, allocs)
	}
	if counter.n != sent {
		t.Errorf("idle Steps delivered %d keep-alive samples, want 0", counter.n-sent)
	}
}

// servedCounter counts the invocations a chain's samples carry.
type servedCounter struct {
	telemetry.Nop
	served int
}

func (c *servedCounter) ObserveInvocation(s telemetry.InvocationSample) { c.served += s.Count }

// fullChainRuntime builds a runtime over asg with pulsed's full observer chain
// attached — telemetry, the accountant racing every roster entrant,
// provenance and alerts, in pulsed's order — plus a servedCounter. Its policy
// keeps every function's highest variant for ten minutes: a record path that
// allocates nothing, so an allocation pin on Step measures the chain.
func fullChainRuntime(t *testing.T, cat *models.Catalog, asg models.Assignment) (*Runtime, *servedCounter) {
	t.Helper()
	cost := cluster.DefaultCostModel()
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ents, err := roster.Build(roster.Names(), cat, cost)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := attribution.New(attribution.Config{Catalog: cat, Assignment: asg, Cost: cost, Entrants: ents})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := provenance.NewRecorder(provenance.RecorderConfig{
		Catalog: cat, Assignment: asg, Names: identity.DefaultNames(len(asg)),
	})
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := alert.NewEngine(alert.Config{Rules: alert.DefaultRules(true), Attribution: acct, Stream: alert.NewBroadcaster()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alerts.Close() })
	counter := &servedCounter{}
	obs := telemetry.Multi(tel, acct, prov, alerts, counter)
	p, err := policy.NewFixed(cat, asg, cluster.DefaultKeepAliveWindow, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Cost: cost, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, counter
}

// TestFullChainInvokeZeroAllocs pins the serving path's independence from
// the observer chain: with pulsed's full chain attached, a warm Invoke
// allocates nothing and delivers no sample — its minute reaches the chain at
// the Step that closes it. Run by the CI alloc job.
func TestFullChainInvokeZeroAllocs(t *testing.T) {
	cat, asg := testSetup(t)
	r, counter := fullChainRuntime(t, cat, asg)
	for fn := range asg {
		if _, err := r.Invoke(fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	sent := counter.served
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.Invoke(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Invoke with the full chain attached allocates %v/op, want 0", allocs)
	}
	if counter.served != sent {
		t.Fatalf("Invoke delivered %d invocations to the chain, want 0", counter.served-sent)
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun adds one warm-up call to the runs it measures.
	if got := counter.served - sent; got != 1001 {
		t.Errorf("the Step delivered %d invocations, want the 1001 served", got)
	}
}

// TestFullChainHarvestStepNoAllocs pins the barrier's invocation feed: once
// every invoked function's series exist, a Step that harvests a minute of
// invocations into pulsed's full chain allocates nothing and delivers
// exactly the invocations served. Run by the CI alloc job.
func TestFullChainHarvestStepNoAllocs(t *testing.T) {
	cat, asg := testSetup(t)
	r, counter := fullChainRuntime(t, cat, asg)
	minute := func() {
		for fn := range asg {
			for i := 0; i <= fn; i++ {
				if _, err := r.Invoke(fn); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < 30; m++ {
		minute()
	}
	sent := counter.served
	if allocs := testing.AllocsPerRun(100, minute); allocs != 0 {
		t.Errorf("a harvesting Step with the full chain attached allocates %v/op, want 0", allocs)
	}
	perMinute := len(asg) * (len(asg) + 1) / 2
	if got := counter.served - sent; got != 101*perMinute {
		t.Errorf("101 Steps (one the warm-up) delivered %d invocations, want %d", got, 101*perMinute)
	}
}

// TestShardedControllerRegistrationBurst registers twenty thousand functions
// online while invokers hammer the initial population and a stepper rolls
// minutes. The lifecycle window drains only the dirty chain and the sharded
// controller re-partitions its shards at each registration; this is the
// conservation check for both: every successful invocation is
// counted exactly once (Σ workers == Stats.Invocations == Σ RecordInvocations
// counts), every registrant gets the next dense slot, and a fresh registrant
// is immediately invocable. CI's 'Differential|Sharded' -race regex picks it
// up.
func TestShardedControllerRegistrationBurst(t *testing.T) {
	cat := models.PaperCatalog()
	const initial = 8
	asg := make(models.Assignment, initial)
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	base, err := core.New(core.Config{Catalog: cat, Assignment: asg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	pol := &countingLifecyclePolicy{Pulse: base}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: pol, Clock: NewManualClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	registrations := 20_000
	if testing.Short() {
		registrations = 2_000
	}
	// The invokers run in rounds, one per registration, so they race every
	// Register without starving it: in round i each invoker makes one call
	// while registration i runs and one after it returns, and registration
	// i+1 waits for both. Every gap between consecutive registrations thus
	// holds a completed Invoke from each invoker.
	const invokers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
	}()
	var rounds [invokers]chan chan struct{} // each round's "registered" signal
	acks := make(chan struct{}, invokers)
	var counted atomic.Int64
	for w := 0; w < invokers; w++ {
		rounds[w] = make(chan chan struct{}, 1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			invoke := func(i int) {
				if _, err := r.Invoke((w + i) % initial); err != nil {
					t.Error(err)
					return
				}
				counted.Add(1)
			}
			for i := 0; ; i += 2 {
				var registered chan struct{}
				select {
				case <-stop:
					return
				case registered = <-rounds[w]:
				}
				invoke(i)
				<-registered
				invoke(i + 1)
				acks <- struct{}{}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.Step(); err != nil {
				t.Error(err)
				return
			}
			goruntime.Gosched()
		}
	}()

	minGap := int64(-1)
	last := counted.Load()
	for i := 0; i < registrations && !t.Failed(); i++ {
		registered := make(chan struct{})
		for w := range rounds {
			rounds[w] <- registered
		}
		slot, err := r.Register(fmt.Sprintf("burst-%d", i), i%len(cat.Families))
		close(registered)
		if err != nil {
			t.Fatal(err)
		}
		if slot != initial+i {
			t.Fatalf("registration %d got slot %d, want %d", i, slot, initial+i)
		}
		for range rounds {
			<-acks
		}
		if i%257 == 0 {
			// A registrant is servable the moment Register returns.
			if _, err := r.Invoke(slot); err != nil {
				t.Fatal(err)
			}
			counted.Add(1)
		}
		if n := counted.Load(); minGap < 0 || n-last < minGap {
			minGap = n - last
		}
		last = counted.Load()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("%d invokes, %.1f per registration, at least %d per registration round",
		counted.Load(), float64(counted.Load())/float64(registrations), minGap)
	if minGap < 2*invokers {
		t.Errorf("a registration round held %d invokes, want at least %d (two per invoker)", minGap, 2*invokers)
	}
	if err := r.Step(); err != nil { // flush the open minute to the policy
		t.Fatal(err)
	}
	want := int(counted.Load())
	if got := r.Stats().Invocations; got != want {
		t.Errorf("Stats().Invocations = %d, callers counted %d", got, want)
	}
	if pol.total != want {
		t.Errorf("policy recorded %d invocations, callers counted %d", pol.total, want)
	}
	if got := r.NumFunctions(); got != initial+registrations {
		t.Errorf("population %d, want %d", got, initial+registrations)
	}
}

// countingLifecyclePolicy sums the invocation counts the controller is told
// about while keeping every optional interface of *core.Pulse (active set,
// lifecycle, Close): it sums what the sparse record entry point is handed.
type countingLifecyclePolicy struct {
	*core.Pulse
	total int
}

func (p *countingLifecyclePolicy) RecordInvocationsSparse(t int, counts []int, invoked []int32) {
	for _, fn := range invoked {
		p.total += counts[fn]
	}
	p.Pulse.RecordInvocationsSparse(t, counts, invoked)
}

// BenchmarkRegister times one online registration at two standing
// populations: the lifecycle window drains only the dirty chain and the
// controller defers its shard-pool rebuild, so the cost must not grow with
// the population beyond amortized slice growth.
func BenchmarkRegister(b *testing.B) {
	cat := models.PaperCatalog()
	for _, pop := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("pop=%dk", pop/1000), func(b *testing.B) {
			asg := make(models.Assignment, pop)
			for i := range asg {
				asg[i] = i % len(cat.Families)
			}
			p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
			if err != nil {
				b.Fatal(err)
			}
			r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0))})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			if err := r.Step(); err != nil {
				b.Fatal(err)
			}
			names := make([]string, b.N)
			for i := range names {
				names[i] = fmt.Sprintf("bench-%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Register(names[i], i%len(cat.Families)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
