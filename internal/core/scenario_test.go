package core_test

// The scenario harness: every equivalence the controller, the cluster engine
// and the live runtime claim of each other, checked by one seeded generator,
// one set of producers and one comparator.
//
//   - generate builds a row's stream: a seeded trace of per-minute
//     invocation counts, optionally with churn (functions arriving and
//     departing), or the mostly-idle register/retire stream the active-set
//     index has to survive.
//   - A producer replays the stream. The reference controller
//     (reference_test.go: Algorithms 1 and 2 one function at a time) runs on
//     the engine's dense walk. The production controller runs on the engine
//     and on the runtime — serial, epoch, and epoch with one goroutine per
//     function — at every shard count of the row; on a static stream one
//     engine run also snapshots its controller half-way and resumes from
//     the snapshot restored at another shard count. The race producers let
//     invokers, a stepper and a churner run concurrently. Every producer but
//     the bare ones carries pulsed's full observer chain (telemetry, the
//     accountant racing all six tournament entrants, provenance, alerts
//     publishing to a stalled /stream subscriber) plus a Recorder of the raw
//     sample stream, and the row's first producer a second arena racing the
//     same entrants with Rests hidden. A race is replayed afterwards through
//     the engine from the counts its policy recorded, as its oracle.
//   - compare holds each producer to the row's first (a runtime to the row's
//     first runtime, itself held to the first) on every surface both
//     expose: decision and candidate-probability vectors, controller
//     snapshots, engine results, runtime Stats and per-slot invocation
//     streams, every sample stream, arena snapshots and series (by
//     Float64bits), attribution reports, provenance rings, tracer counts and
//     alert transitions. laws checks what each producer owes on its own: the
//     six-ledger invocation conservation, the sparse KeepAlive contract
//     against the dense reference, resting entrants = dense entrants, and the
//     lifecycle rules.
//
// FuzzDifferentialScenario feeds the generator from fuzz bytes. A new
// observer is covered by adding it to newChain and its output to compare.
// CI's 'Differential|Sharded' -race regex picks this file up.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	"github.com/pulse-serverless/pulse/internal/runtime"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// Producers. The reference and the bare serial runtime run once per row, the
// restored engine once at the row's largest shard count, the others once per
// shard count.
const (
	prodRef        = "reference"       // the engine over the reference controller
	prodEngine     = "engine"          // the engine over the controller
	prodBareEngine = "engine-bare"     // no observer
	prodRestored   = "engine-restored" // bare; snapshotted half-way and restored at the row's smallest shard count
	prodSerial     = "serial"          // the serial runtime, sequential replay
	prodEpoch      = "epoch"           // the epoch runtime, sequential replay
	prodParallel   = "epoch-parallel"  // the epoch runtime, one goroutine per function
	prodBareSerial = "serial-bare"     // the serial runtime with no observer
	prodRaceSerial = "race-serial"     // concurrent invokers, stepper and churner
	prodRace       = "race-epoch"
)

// raceAssignment gives a race's four functions their families.
var raceAssignment = models.Assignment{0, 1, 0, 1}

// traceStride is the runtime tracer's 1-in-K sampling period; deliberately
// not a divisor of anything round.
const traceStride = 7

// stream is a row's seeded input.
type stream struct {
	mix     string // "azure", "bursty" (24 functions), "bursty16", "csv" or "idle"; "" races instead
	seed    int64
	minutes int
	churn   float64 // share of functions given a partial lifetime; a race with any adds a churner
}

// scenario is one row: a stream, a policy and the producers that replay it.
type scenario struct {
	name      string
	stream    stream
	policy    string      // "pulse" (default) or "fixed"
	cfg       core.Config // controller options beside the population
	shards    []int       // controller shard counts, ascending; default {1, 3, 7}
	producers []string    // default: every trace producer
	check     func(t *testing.T, outs []*outcome)
	fuzzed    bool // too small a stream to owe the coverage checks
}

func scenarios() []scenario {
	traces := []struct {
		name string
		s    stream
	}{
		{"azure-2d", stream{mix: "azure", seed: 7, minutes: 2 * trace.MinutesPerDay}},
		{"bursty-24fn-1d", stream{mix: "bursty", seed: 11, minutes: trace.MinutesPerDay}},
		{"azure-csv-1d", stream{mix: "csv", seed: 23, minutes: trace.MinutesPerDay}},
		{"churn-1d", stream{mix: "azure", seed: 31, minutes: trace.MinutesPerDay, churn: 0.5}},
		{"churn-heavy-16fn-1d", stream{mix: "bursty16", seed: 43, minutes: trace.MinutesPerDay, churn: 0.8}},
	}
	idle := func(seed int64) stream { return stream{mix: "idle", seed: seed, minutes: 150} }
	var rows []scenario
	for _, w := range traces {
		var check func(*testing.T, []*outcome)
		if w.s.churn > 0 {
			check = checkChurn
		}
		rows = append(rows,
			scenario{name: w.name, stream: w.s, check: check},
			scenario{name: "fixed/" + w.name, stream: w.s, policy: "fixed", shards: []int{1}})
	}
	rows = append(rows,
		scenario{name: "idle-48fn/seed=1", stream: idle(1)},
		scenario{name: "idle-48fn/seed=2", stream: idle(2), producers: []string{prodRef, prodEngine}},
		scenario{name: "idle-48fn/seed=3", stream: idle(3), producers: []string{prodRef, prodEngine}},
		scenario{name: "race", producers: []string{prodRace}},
		scenario{name: "race-churn", stream: stream{churn: 1}, producers: []string{prodRaceSerial, prodRace}},
	)
	for _, c := range []struct {
		name      string
		cfg       core.Config
		producers []string
	}{
		{"T2-evict", core.Config{Technique: core.TechniqueT2{}, Step: core.StepByOneEvict}, []string{prodRef, prodEngine, prodRestored}},
		{"tight-KM-T", core.Config{KaMThreshold: 0.05, LocalWindow: 30}, []string{prodRef, prodEngine, prodRestored}},
		// No restored producer: Restore reseeds the victim generator, and a
		// snapshot does not carry its position, so a resumed run picks
		// different victims from the cut on.
		{"random-victim", core.Config{RandomDowngradeSeed: 99}, []string{prodRef, prodEngine}},
	} {
		for _, w := range traces {
			rows = append(rows, scenario{name: c.name + "/" + w.name, stream: w.s, cfg: c.cfg, producers: c.producers})
		}
	}
	return rows
}

// TestDifferentialScenarios plays every row.
func TestDifferentialScenarios(t *testing.T) {
	fired := false
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			var tr *trace.Trace
			if sc.stream.mix != "" {
				tr = generate(t, sc.stream)
			}
			for _, o := range sc.play(t, tr) {
				fired = fired || o.chain != nil && len(o.notes) > 0
			}
		})
	}
	if !fired && !t.Failed() {
		t.Error("no scenario produced a single alert transition: the probe rules are vacuous")
	}
}

// FuzzDifferentialScenario feeds the generator's randomness from the fuzz
// input: a mostly-idle stream of six functions over 24 minutes, with
// arrivals and departures, replayed by the reference, the engine and the
// runtime in every mode, and held to the same comparator and laws.
func FuzzDifferentialScenario(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 255, 3, 200, 17, 90, 0, 0, 41, 250, 128, 7})
	f.Add(bytes.Repeat([]byte{1, 254, 60, 9}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		sc := scenario{name: "fuzz", stream: stream{mix: "idle"}, fuzzed: true, shards: []int{1, 3}, producers: []string{prodRef, prodEngine, prodSerial, prodEpoch, prodParallel}}
		sc.play(t, idleTrace(&src, 6, 24))
	})
}

// byteSource hands out fuzz bytes as the generator's randomness, zeros once
// they run out.
type byteSource []byte

func (b *byteSource) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *byteSource) Float64() float64 { return float64(b.next()) / 256 }
func (b *byteSource) Intn(n int) int   { return int(b.next()) % n }

// play runs each of the row's producers as a subtest held to its own laws
// and to the row's first producer — a runtime to the row's first runtime,
// which was itself held to the first producer, and a race to the engine
// replaying what its policy recorded — then the row's own check.
func (sc *scenario) play(t *testing.T, tr *trace.Trace) []*outcome {
	var outs []*outcome
	var firstLive *outcome
	for _, r := range sc.runs() {
		t.Run(r.label, func(t *testing.T) {
			o := sc.run(t, tr, r, len(outs) == 0)
			laws(t, sc, o)
			switch {
			case o.race:
				if sc.stream.churn == 0 {
					compare(t, sc.run(t, oracleTrace(o), run{prodEngine, "oracle", r.shards}, false), o)
				}
			case len(outs) == 0:
			case o.live && firstLive != nil:
				compare(t, firstLive, o)
			default:
				compare(t, outs[0], o)
			}
			if o.live && firstLive == nil {
				firstLive = o
			}
			outs = append(outs, o)
		})
	}
	if sc.check != nil && !t.Failed() {
		sc.check(t, outs)
	}
	return outs
}

// generate builds the trace a stream describes.
func generate(t testing.TB, s stream) *trace.Trace {
	t.Helper()
	if s.mix == "idle" {
		return idleTrace(rand.New(rand.NewSource(s.seed)), 48, s.minutes)
	}
	cfg := trace.GeneratorConfig{Seed: s.seed, Horizon: s.minutes, Churn: s.churn}
	if s.mix == "bursty" || s.mix == "bursty16" {
		cfg.Archetypes = core.BurstyMix(s.mix == "bursty")
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.mix == "csv" {
		// Round-trip through the repository's trace CSV, the path a replay
		// with pulsesim -trace takes.
		var file bytes.Buffer
		if err := trace.WriteCSV(&file, tr); err != nil {
			t.Fatal(err)
		}
		if tr, err = trace.ReadCSV(&file); err != nil {
			t.Fatal(err)
		}
	}
	if s.churn > 0 && !tr.HasChurn() {
		t.Fatalf("stream %+v generated no churn; pick another seed", s)
	}
	return tr
}

// idleTrace is the stream the active-set index has to survive: fns
// functions, every seventh hot and the rest rarely invoked, with an arrival
// in about one minute in seven and a departure in one in ten.
func idleTrace(rng interface {
	Float64() float64
	Intn(int) int
}, fns, minutes int) *trace.Trace {
	tr := &trace.Trace{Horizon: minutes}
	var live []int
	add := func(start int) {
		fn := len(tr.Functions)
		tr.Functions = append(tr.Functions, trace.Function{ID: fn, Name: fmt.Sprintf("fn-%d", fn), Counts: make([]int, minutes), Start: start})
		live = append(live, fn)
	}
	for len(live) < fns {
		add(0)
	}
	for m := 0; m < minutes; m++ {
		for _, fn := range live {
			p := 0.02
			if fn%7 == 0 {
				p = 0.5
			}
			if rng.Float64() < p {
				tr.Functions[fn].Counts[m] = 1 + rng.Intn(3)
			}
		}
		if m+1 == minutes {
			break
		}
		if rng.Float64() < 0.1 && len(live) > 1 {
			i := rng.Intn(len(live))
			tr.Functions[live[i]].End = m + 1
			live = slices.Delete(live, i, i+1)
		}
		if rng.Float64() < 0.15 {
			add(m + 1)
		}
	}
	return tr
}

// run is one producer at one shard count.
type run struct {
	kind, label string
	shards      int
}

func (sc *scenario) shardCounts() []int {
	if sc.shards == nil {
		return []int{1, 3, 7}
	}
	return sc.shards
}

func (sc *scenario) runs() []run {
	shards := sc.shardCounts()
	kinds := sc.producers
	if kinds == nil {
		kinds = []string{prodRef, prodEngine, prodBareEngine, prodRestored, prodSerial, prodEpoch, prodParallel, prodBareSerial}
	}
	var out []run
	for _, k := range kinds {
		switch {
		case (k == prodRef || k == prodRestored) && sc.policy == "fixed":
		case k == prodRestored:
			// A snapshot persists no tombstones, so only a static stream
			// resumes.
			if sc.stream.churn == 0 && sc.stream.mix != "idle" {
				out = append(out, run{k, fmt.Sprintf("%s/shards=%d->%d", k, shards[len(shards)-1], shards[0]), shards[len(shards)-1]})
			}
		case k == prodRef || k == prodBareSerial:
			out = append(out, run{k, k, shards[0]})
		default:
			for _, s := range shards {
				out = append(out, run{k, fmt.Sprintf("%s/shards=%d", k, s), s})
			}
		}
	}
	return out
}

// outcome is every surface one producer exposes.
type outcome struct {
	label   string
	tr      *trace.Trace
	initAsg models.Assignment // the families of the functions live at minute 0
	dense   bool              // the policy was walked densely (the reference)
	live    bool              // a runtime replay: its last minute stays open
	race    bool

	// The policy's side, logged by probe.
	decisions [][]int
	probs     [][]float64
	told      []int   // invocations the policy was told about, per minute
	counts    [][]int // a race's: the count vectors the policy was told
	// pending is what the last minute served: a live replay leaves that
	// minute open, so neither its policy nor any observer hears of it, and
	// an engine run withholds its samples from the chain (its policy still
	// records it).
	pending    int
	controller bool
	snapshot   core.PulseSnapshot
	downgrades int
	peaks      int
	restored   bool // resumed from a snapshot half-way
	// cutDowngrades is the downgrade count when the snapshot was taken.
	cutDowngrades int

	result  *cluster.Result
	stats   *runtime.Stats
	streams [][]runtime.Invocation
	tracer  *provenance.TracerStats
	served  int // race: successful Invokes
	*chain      // nil for a bare producer
}

// controller is what the harness reads from the reference and the
// production controller alike.
type controller interface {
	cluster.DynamicPolicy
	Snapshot() core.PulseSnapshot
	TotalDowngrades() int
	PeakMinutes() int
	Close() error
}

// config is the row's controller configuration at one shard count.
func (sc *scenario) config(shards int, obs telemetry.Observer, cat *models.Catalog, asg models.Assignment, names []string) core.Config {
	cfg := sc.cfg
	cfg.Catalog, cfg.Assignment, cfg.Names, cfg.Observer, cfg.Shards = cat, asg, names, obs, shards
	return cfg
}

func (sc *scenario) newPolicy(t *testing.T, kind string, shards int, obs telemetry.Observer, cat *models.Catalog, asg models.Assignment, names []string) cluster.DynamicPolicy {
	t.Helper()
	if sc.policy == "fixed" {
		p, err := policy.NewFixedNamed(cat, asg, cluster.DefaultKeepAliveWindow, policy.QualityHighest, names)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sc.config(shards, obs, cat, asg, names)
	if kind == prodRef {
		return core.NewReference(cfg)
	}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Shards(); got != shards && shards <= len(asg) {
		t.Fatalf("effective shards = %d, want %d", got, shards)
	}
	return p
}

func (sc *scenario) run(t *testing.T, tr *trace.Trace, r run, first bool) *outcome {
	cat := models.PaperCatalog()
	o := &outcome{label: r.label, tr: tr, dense: r.kind == prodRef}
	asg := raceAssignment
	if sc.stream.mix != "" {
		asg = core.UniformAssignment(cat, len(tr.Functions))
	}
	initAsg, names := asg, identity.DefaultNames(len(asg))
	if tr != nil {
		var err error
		if names, initAsg, err = cluster.InitialPopulation(tr, asg); err != nil {
			t.Fatal(err)
		}
	}
	o.initAsg = initAsg
	var obs telemetry.Observer
	if r.kind != prodBareEngine && r.kind != prodBareSerial && r.kind != prodRestored {
		o.chain = newChain(t, cat, initAsg, names, first)
		obs = o.obs
	}
	pol := sc.newPolicy(t, r.kind, r.shards, obs, cat, initAsg, names)
	var rs *restorer
	if r.kind == prodRestored {
		rs = &restorer{Pulse: pol.(*core.Pulse), t: t, into: sc.config(sc.shardCounts()[0], nil, cat, initAsg, names), cut: tr.Horizon / 2}
		pol = rs
	}
	if c, ok := pol.(controller); ok {
		defer c.Close()
	}
	wrapped, pr := wrap(pol, r.kind == prodRace)

	switch r.kind {
	case prodRef, prodEngine, prodBareEngine, prodRestored:
		last := tr.Horizon - 1
		for _, f := range tr.Functions {
			if f.LiveAt(last, tr.Horizon) {
				o.pending += f.Counts[last]
			}
		}
		if obs != nil {
			obs = withhold{obs, last}
		}
		res, err := cluster.Run(cluster.Config{
			Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel(),
			Observer: obs, RecordServiceTimes: true,
		}, wrapped)
		if err != nil {
			t.Fatal(err)
		}
		o.result = res
		if o.chain != nil {
			o.finish(t)
		}
	default:
		mode := runtime.ModeEpoch
		if r.kind == prodSerial || r.kind == prodBareSerial || r.kind == prodRaceSerial {
			mode = runtime.ModeSerial
		}
		var tracer *provenance.Tracer
		if o.chain != nil {
			tracer = provenance.NewTracer(provenance.TracerConfig{Stride: traceStride})
		}
		rt, err := runtime.New(runtime.Config{
			Catalog: cat, Assignment: initAsg, Names: names, Policy: wrapped,
			Clock: runtime.NewManualClock(time.Unix(0, 0)), Cost: cluster.DefaultCostModel(),
			Observer: obs, Mode: mode, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if rt.Mode() != mode {
			t.Fatalf("mode = %q, want %q", rt.Mode(), mode)
		}
		o.live = true
		if r.kind == prodRaceSerial || r.kind == prodRace {
			o.race = true
			o.served = race(t, rt, sc.stream.churn > 0)
		} else {
			o.streams, o.pending = replay(t, rt, tr, asg, r.kind == prodParallel, sc.stream.seed)
		}
		if o.chain != nil {
			o.finish(t)
		}
		st := rt.Stats()
		o.stats = &st
		if tracer != nil {
			ts := tracer.Stats()
			o.tracer = &ts
		}
	}
	o.decisions, o.probs, o.told, o.counts = pr.decisions, pr.probs, pr.told, pr.counts
	if rs != nil {
		o.restored, o.cutDowngrades = true, rs.downgrades
	}
	if c, ok := pol.(controller); ok {
		o.controller = true
		o.snapshot, o.downgrades, o.peaks = c.Snapshot(), c.TotalDowngrades(), c.PeakMinutes()
	}
	return o
}

// replay drives a trace through a live runtime in the order the engine's
// churn path uses. Per minute t: serve every live function's invocations
// (in slot order, or from one goroutine per function), retire the functions
// whose lifetime ends at t+1 (slot order), register those starting at t+1
// (trace order), then Step — except after the last minute, which stays open
// as the engine leaves it. A sequential replay moves each lifecycle call in
// among the minute's invocations at a seeded position (a departure after its
// own function's), which nothing downstream may notice. It returns the
// per-slot invocation streams and how many invocations the open minute holds.
// asg gives each trace function's family.
func replay(t *testing.T, r *runtime.Runtime, tr *trace.Trace, asg models.Assignment, parallel bool, seed int64) ([][]runtime.Invocation, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	slotOf := make([]int, len(tr.Functions))
	next := 0
	for ti := range slotOf {
		slotOf[ti] = -1
		if tr.Functions[ti].Start == 0 {
			slotOf[ti] = next
			next++
		}
	}
	streams := make([][]runtime.Invocation, next)
	// Open the first minute now, as the engine does: a runtime opens it
	// lazily, and a function registered before that would join minute 0.
	if _, err := r.AliveVariant(0); err != nil {
		t.Fatal(err)
	}
	invoke := func(slot, n int) error {
		for i := 0; i < n; i++ {
			inv, err := r.Invoke(slot)
			if err != nil {
				return err
			}
			streams[slot] = append(streams[slot], inv)
		}
		return nil
	}
	type op struct {
		ti, slot, n int
		arrive      bool
	}
	lifecycle := func(l op) {
		f := &tr.Functions[l.ti]
		if !l.arrive {
			if err := r.Deregister(f.Name); err != nil {
				t.Fatal(err)
			}
			return
		}
		slot, err := r.Register(f.Name, asg[l.ti])
		if err != nil {
			t.Fatal(err)
		}
		if slot != next {
			t.Fatalf("runtime issued slot %d for %q, the engine issues %d", slot, f.Name, next)
		}
		slotOf[l.ti] = slot
		next++
		streams = append(streams, nil)
	}
	pending := 0
	for tm := 0; tm < tr.Horizon; tm++ {
		var calls, life []op
		pending = 0
		for ti := range tr.Functions {
			if f := &tr.Functions[ti]; f.LiveAt(tm, tr.Horizon) && f.Counts[tm] > 0 {
				calls = append(calls, op{ti: ti, slot: slotOf[ti], n: f.Counts[tm]})
				pending += f.Counts[tm]
			}
		}
		sort.Slice(calls, func(i, j int) bool { return calls[i].slot < calls[j].slot })
		if tm+1 < tr.Horizon {
			for ti := range tr.Functions {
				if slotOf[ti] >= 0 && tr.Functions[ti].EndMinute(tr.Horizon) == tm+1 {
					life = append(life, op{ti: ti, slot: slotOf[ti]})
				}
			}
			sort.Slice(life, func(i, j int) bool { return life[i].slot < life[j].slot })
			for ti := range tr.Functions {
				if tr.Functions[ti].Start == tm+1 {
					life = append(life, op{ti: ti, arrive: true})
				}
			}
		}
		if parallel {
			var wg sync.WaitGroup
			for _, c := range calls {
				wg.Add(1)
				go func(c op) {
					defer wg.Done()
					if err := invoke(c.slot, c.n); err != nil {
						t.Error(err)
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for _, l := range life {
				lifecycle(l)
			}
		} else {
			done := 0
			serve := func(upto int) {
				for ; done < upto; done++ {
					if err := invoke(calls[done].slot, calls[done].n); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, l := range life {
				lo := done
				if !l.arrive {
					for i, c := range calls {
						if c.slot == l.slot && i+1 > lo {
							lo = i + 1
						}
					}
				}
				serve(lo + rng.Intn(len(calls)-lo+1))
				lifecycle(l)
			}
			serve(len(calls))
		}
		if tm+1 < tr.Horizon {
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return streams, pending
}

// race lets four invokers, a stepper and — when churned — a churner run
// concurrently, then Steps once more so every served invocation has reached
// every ledger. Without churn each invoker owns one function and the
// stepper runs until they finish; with churn the invokers also hit the
// churning tail and slots past it, and the only acceptable failures are the
// lifecycle sentinels. It returns the successful Invokes.
func race(t *testing.T, r *runtime.Runtime, churned bool) int {
	const (
		workers = 4
		rounds  = 60
	)
	perWorker := 20000
	if churned {
		perWorker = rounds * 4
	} else if testing.Short() {
		perWorker = 2000
	}
	n := r.NumFunctions()
	var served [workers]int
	var wg, stepper sync.WaitGroup
	// Half-way through, each invoker waits for two rollovers (or for the
	// stepper to give up), so the race with the stepper is never vacuous.
	rolled := make(chan struct{})
	var rolledOnce sync.Once
	roll := func() { rolledOnce.Do(func() { close(rolled) }) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i == perWorker/2 {
					<-rolled
				}
				fn := w % n
				if churned {
					fn = i % (n + 2)
				}
				_, err := r.Invoke(fn)
				switch {
				case err == nil:
					served[w]++
				case !churned || !errors.Is(err, runtime.ErrDeregistered) && !errors.Is(err, runtime.ErrUnknownFunction):
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// The stepper stays well inside the series window (1440 minutes), so
	// every minute's count is still retrievable afterwards.
	stop := make(chan struct{})
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		defer roll()
		for i := 0; i < 1200 && (!churned || i < rounds); i++ {
			select {
			case <-stop:
				return
			default:
				if err := r.Step(); err != nil {
					t.Error(err)
					return
				}
			}
			if i == 1 {
				roll()
			}
		}
	}()
	if churned {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := r.Register(fmt.Sprintf("churner-%d", i), i%3); err != nil {
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
	}
	wg.Wait()
	close(stop)
	stepper.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if got := r.NumFunctions() - r.NumActive(); churned && got != rounds-3 {
		t.Errorf("tombstoned slots = %d, want %d", got, rounds-3)
	}
	total := 0
	for _, s := range served {
		total += s
	}
	if total == 0 {
		t.Error("the race served no invocations")
	}
	return total
}

// oracleTrace is the trace a race's policy recorded: its count vectors, then
// the minute the race left open, idle.
func oracleTrace(o *outcome) *trace.Trace {
	tr := &trace.Trace{Horizon: len(o.counts) + 1}
	for fn, name := range identity.DefaultNames(len(raceAssignment)) {
		f := trace.Function{ID: fn, Name: name, Counts: make([]int, tr.Horizon)}
		for m, counts := range o.counts {
			f.Counts[m] = counts[fn]
		}
		tr.Functions = append(tr.Functions, f)
	}
	return tr
}

// probe sits between a producer and its policy: it logs every decision and
// candidate-probability vector and counts the invocations the policy is
// told about each minute, keeping the count vectors themselves when asked.
type probe struct {
	cluster.DynamicPolicy
	decisions [][]int
	probs     [][]float64
	told      []int
	keep      bool
	counts    [][]int
}

// record logs one minute's counts (every producer zeroes the slots it did
// not invoke, so a sparse record sums densely too).
func (p *probe) record(counts []int) {
	n := 0
	for _, c := range counts {
		n += c
	}
	p.told = append(p.told, n)
	if p.keep {
		p.counts = append(p.counts, slices.Clone(counts))
	}
}

func (p *probe) KeepAlive(t int) []int {
	d := p.DynamicPolicy.KeepAlive(t)
	p.decisions = append(p.decisions, slices.Clone(d))
	if c, ok := p.DynamicPolicy.(interface{ CandidateProbs() []float64 }); ok {
		p.probs = append(p.probs, slices.Clone(c.CandidateProbs()))
	}
	return d
}

func (p *probe) RecordInvocations(t int, counts []int) {
	p.record(counts)
	p.DynamicPolicy.RecordInvocations(t, counts)
}

// sparseProbe keeps the active-set surface of a policy that has one, so
// probing does not move its producer onto the dense walk.
type sparseProbe struct {
	*probe
	sp cluster.ActiveSetPolicy
}

func (p sparseProbe) RecordInvocationsSparse(t int, counts []int, invoked []int32) {
	p.record(counts)
	p.sp.RecordInvocationsSparse(t, counts, invoked)
}

func (p sparseProbe) ActiveSlots() []int32 { return p.sp.ActiveSlots() }

func wrap(pol cluster.DynamicPolicy, keep bool) (cluster.DynamicPolicy, *probe) {
	p := &probe{DynamicPolicy: pol, keep: keep}
	if sp, ok := pol.(cluster.ActiveSetPolicy); ok {
		return sparseProbe{p, sp}, p
	}
	return p, p
}

// withhold keeps one minute's invocation samples from a chain: an engine
// run's last, which a live replay leaves open and so shows no observer.
type withhold struct {
	telemetry.Observer
	minute int
}

func (w withhold) ObserveInvocation(s telemetry.InvocationSample) {
	if s.Minute != w.minute {
		w.Observer.ObserveInvocation(s)
	}
}

func (w withhold) ObserveRegister(s telemetry.RegisterSample) {
	telemetry.ObserveLifecycle(w.Observer, s)
}

func (w withhold) ObserveDeregister(s telemetry.DeregisterSample) {
	telemetry.ObserveLifecycleEnd(w.Observer, s)
}

// restorer runs a controller up to minute cut, then snapshots it and resumes
// from the snapshot restored into the configuration into, usually at another
// shard count: whatever the controller decides from must be in the snapshot
// and must not depend on the shard count.
type restorer struct {
	*core.Pulse
	t          *testing.T
	into       core.Config
	cut        int
	downgrades int // the count at the cut
}

func (r *restorer) KeepAlive(m int) []int {
	if m == r.cut {
		old := r.Pulse
		p, err := core.Restore(r.into, old.Snapshot())
		if err != nil {
			r.t.Fatal(err)
		}
		r.downgrades = old.TotalDowngrades()
		old.Close()
		r.Pulse = p
	}
	return r.Pulse.KeepAlive(m)
}

// chain is pulsed's observer chain with every feature on, plus the harness's
// taps: a Recorder of the raw sample stream and, on a row's first producer,
// a second arena racing the same six entrants with Rests hidden.
type chain struct {
	obs     telemetry.Observer
	rec     *telemetry.Recorder
	tel     *telemetry.Telemetry
	acct    *attribution.Accountant
	restful *tournament.Arena // nil but on a row's first producer
	hidden  []*restless       // the Rests-hidden arena's entrants
	series  []uint64          // seriesBits of the accountant's arena
	prov    *provenance.Recorder
	alerts  *alert.Engine
	sink    *alert.CollectorSink
	stalled *alert.Subscription
	notes   []alert.Notification
	tap     *alert.Subscription // the /stream, read whole by finish
	rollups []alert.MinutePoint // the alert engine's minute rollups
}

// probeRules transition on the harness streams: a cold-rate rule with
// hysteresis, a keep-alive rule that flaps with load and a savings rule that
// reads the accountant. One divergent minute anywhere shifts a transition.
var probeRules = []alert.Rule{
	{Name: "cold-spike", Metric: alert.MetricColdRatePct, Op: alert.OpAbove, Threshold: 20, For: 2, Cooldown: 3},
	{Name: "kam-any", Metric: alert.MetricKaMMB, Op: alert.OpAbove, Threshold: 1, For: 1, Cooldown: 0},
	{Name: "savings-reg", Metric: alert.MetricSavingsVsFixedUSD, Op: alert.OpBelow, Threshold: 0, For: 1, Cooldown: 0},
}

func newChain(t *testing.T, cat *models.Catalog, asg models.Assignment, names []string, restful bool) *chain {
	t.Helper()
	cost := cluster.DefaultCostModel()
	entrants := func() []tournament.ShadowEntrant {
		ents, err := roster.Build(roster.Names(), cat, cost)
		if err != nil {
			t.Fatal(err)
		}
		return ents
	}
	c := &chain{rec: &telemetry.Recorder{}, sink: &alert.CollectorSink{}}
	var err error
	if c.tel, err = telemetry.New(telemetry.Config{}); err != nil {
		t.Fatal(err)
	}
	if c.acct, err = attribution.New(attribution.Config{Catalog: cat, Assignment: asg, Cost: cost, Entrants: entrants()}); err != nil {
		t.Fatal(err)
	}
	chain := []telemetry.Observer{c.rec, c.tel, c.acct}
	if restful {
		hidden := append([]tournament.ShadowEntrant{
			tournament.NewFixedWindow(attribution.BaselineFixedHigh, cluster.DefaultKeepAliveWindow),
			tournament.NewNever(attribution.BaselineNever),
			tournament.NewOracle(attribution.BaselineOracle),
		}, entrants()...)
		for i, e := range hidden {
			r := &restless{ShadowEntrant: e}
			c.hidden = append(c.hidden, r)
			hidden[i] = r
			if h, ok := e.(tournament.HindsightEntrant); ok {
				hidden[i] = restlessHindsight{r, h}
			}
		}
		if c.restful, err = tournament.New(tournament.Config{Catalog: cat, Assignment: asg, Cost: cost, Entrants: hidden}); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, c.restful)
	}
	if c.prov, err = provenance.NewRecorder(provenance.RecorderConfig{Catalog: cat, Assignment: asg, Names: names, Window: 32}); err != nil {
		t.Fatal(err)
	}
	stream := alert.NewBroadcaster()
	c.stalled = stream.Subscribe(1)
	c.tap = stream.Subscribe(1 << 15)
	// The queue holds every transition a replay produces: a full queue drops
	// notifications, which a daemon may do and a sequence comparison may not.
	if c.alerts, err = alert.NewEngine(alert.Config{
		Rules: probeRules, Sinks: []alert.Sink{c.sink}, Attribution: c.acct, Stream: stream, QueueSize: 1 << 14,
	}); err != nil {
		t.Fatal(err)
	}
	// pulsed's order: the accountant prices a minute before the alert engine
	// evaluates it.
	c.obs = telemetry.Multi(append(chain, c.prov, c.alerts)...)
	return c
}

// finish flushes the alert engine's open minute, drains its queue and reads
// its minute rollups off the stream.
func (c *chain) finish(t *testing.T) {
	c.alerts.Flush()
	if err := c.alerts.Close(); err != nil {
		t.Fatal(err)
	}
	c.notes = c.sink.Notifications()
	c.stalled.Close()
	c.series = seriesBits(c.acct.Arena())
	c.tap.Close()
	if n := c.tap.Dropped(); n > 0 {
		t.Fatalf("the /stream tap dropped %d events", n)
	}
	for ev := range c.tap.C() {
		if ev.Type == alert.StreamMinute {
			var p alert.MinutePoint
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatal(err)
			}
			c.rollups = append(c.rollups, p)
		}
	}
	c.tap = nil
}

// restless hides Rests, so the arena consults it at every live slot, and
// notes any call the arena makes for a slot it already retired. Each keeps
// its own notes: the arena walks entrants concurrently.
type restless struct {
	tournament.ShadowEntrant
	retired []bool
	misuse  []string
}

func (e *restless) Register(fn, fam, nv int) {
	e.retired = append(e.retired, false)
	e.ShadowEntrant.Register(fn, fam, nv)
}

func (e *restless) Retire(fn int) {
	e.retired[fn] = true
	e.ShadowEntrant.Retire(fn)
}

func (e *restless) KeepAlive(m, fn int) int {
	e.note("KeepAlive", m, fn)
	return e.ShadowEntrant.KeepAlive(m, fn)
}

func (e *restless) Record(m, fn, count int) {
	e.note("Record", m, fn)
	e.ShadowEntrant.Record(m, fn, count)
}

func (e *restless) note(call string, m, fn int) {
	if e.retired[fn] && len(e.misuse) < 3 {
		e.misuse = append(e.misuse, fmt.Sprintf("%s %s(%d, %d) after Retire", e.Name(), call, m, fn))
	}
}

type restlessHindsight struct {
	*restless
	h tournament.HindsightEntrant
}

func (e restlessHindsight) HindsightKeepAlive(m, fn int) int { return e.h.HindsightKeepAlive(m, fn) }

// compare holds got to base on every surface both expose. A live replay and
// an engine run differ only in when they record and emit: the runtime leaves
// its last minute open, and retires a departing function — emitting its
// samples — before the Step that would record its last lived minute, so the
// surfaces that carry either are compared between runs of one kind only.
// Minute samples carry neither — both price each minute through one
// accounting as it opens — so they are compared across kinds.
func compare(t *testing.T, base, got *outcome) {
	t.Helper()
	eq := func(surface string, want, have any) {
		t.Helper()
		if !reflect.DeepEqual(want, have) {
			t.Errorf("%s diverges from %s", surface, base.label)
		}
	}
	same := base.live == got.live
	eq("decision vectors", base.decisions, got.decisions)
	if base.probs != nil && got.probs != nil {
		eq("candidate probabilities", base.probs, got.probs)
	}
	if base.controller && got.controller {
		eq("downgrade count", base.downgrades, got.downgrades)
		eq("peak-minute count", base.peaks, got.peaks)
		if same {
			eq("controller snapshot", base.snapshot, got.snapshot)
		}
	}
	if base.result != nil && got.result != nil {
		eq("engine result", *base.result, *got.result)
	}
	if base.stats != nil && got.stats != nil {
		eq("Stats", *base.stats, *got.stats)
		eq("per-slot invocation streams", base.streams, got.streams)
	}
	if base.tracer != nil && got.tracer != nil {
		eq("tracer counts", [2]uint64{base.tracer.Attempts, base.tracer.Sampled}, [2]uint64{got.tracer.Attempts, got.tracer.Sampled})
	}
	b, g := base.chain, got.chain
	if b == nil || g == nil {
		return
	}
	eq("keep-alive samples", b.rec.KeepAlives, g.rec.KeepAlives)
	eq("peak samples", b.rec.Peaks, g.rec.Peaks)
	eq("downgrade samples", b.rec.Downgrades, g.rec.Downgrades)
	eq("schedule samples", schedules(base, got), schedules(got, base))
	eq("minute samples", b.rec.Minutes, g.rec.Minutes)
	if same {
		eq("register samples", b.rec.Registers, g.rec.Registers)
		eq("deregister samples", b.rec.Deregisters, g.rec.Deregisters)
		eq("invocation samples", b.rec.Invocations, g.rec.Invocations)
	}
	eq("arena snapshot", b.acct.Arena().Snapshot(), g.acct.Arena().Snapshot())
	eq("arena series", b.series, g.series)
	eq("attribution report", b.acct.Report(), g.acct.Report())
	eq("decision rings", b.prov.Rings(), g.prov.Rings())
	eq("alert transitions", b.notes, g.notes)
}

// schedules is o's schedule stream as other's kind emits it: an engine run
// compared with a live replay drops minute H−1 and each departing function's
// last lived minute.
func schedules(o, other *outcome) []telemetry.ScheduleSample {
	if o.live || !other.live {
		return o.rec.Schedules
	}
	departed := map[[2]int]bool{}
	for _, d := range o.rec.Deregisters {
		departed[[2]int{d.Minute, d.Function}] = true
	}
	var out []telemetry.ScheduleSample
	for _, s := range o.rec.Schedules {
		if s.Minute != o.tr.Horizon-1 && !departed[[2]int{s.Minute, s.Function}] {
			out = append(out, s)
		}
	}
	return out
}

// seriesBits flattens every series an arena serves — the shared channels
// and each entrant's, at minute and hour resolution — to (minute, value
// bits) pairs.
func seriesBits(a *tournament.Arena) []uint64 {
	sels := []tournament.Selector{
		tournament.Shared(tournament.ChanKaMMB), tournament.Shared(tournament.ChanCostUSD),
		tournament.Shared(tournament.ChanCold), tournament.Shared(tournament.ChanInvocations),
	}
	for ei := range a.EntrantNames() {
		for _, c := range []tournament.Channel{tournament.ChanKaMMB, tournament.ChanCostUSD, tournament.ChanCold, tournament.ChanSavingsUSD} {
			sels = append(sels, tournament.Selector{Entrant: ei, Channel: c})
		}
	}
	var out []uint64
	for _, sel := range sels {
		for _, hourly := range []bool{false, true} {
			for _, p := range a.Series(sel, 1<<20, hourly) {
				out = append(out, uint64(p.Minute), math.Float64bits(p.Value))
			}
		}
	}
	return out
}

// laws checks what one producer owes on its own.
func laws(t *testing.T, sc *scenario, o *outcome) {
	t.Helper()
	conservation(t, o)
	if o.restored && o.downgrades == o.cutDowngrades {
		t.Error("no downgrade after the cut: the restored controller never ran Algorithm 2's downgrades")
	}
	if o.chain == nil {
		return
	}
	// Resting entrants are an iteration-order optimization: the arena racing
	// them with Rests hidden must agree bit for bit, and must never have
	// been asked about a retired slot.
	snap := o.acct.Arena().Snapshot()
	if o.restful != nil {
		if !reflect.DeepEqual(snap, o.restful.Snapshot()) {
			t.Error("the resting and the Rests-hidden arenas' snapshots diverge")
		}
		if !slices.Equal(o.series, seriesBits(o.restful)) {
			t.Error("the resting and the Rests-hidden arenas' series diverge")
		}
		for _, r := range o.hidden {
			if len(r.misuse) > 0 {
				t.Errorf("the arena consulted retired slots: %v", r.misuse)
			}
		}
	}
	if want := attribution.NumBaselines + len(roster.Names()); len(snap.Entrants) != want {
		t.Fatalf("%d entrants raced, want %d", len(snap.Entrants), want)
	}
	lifecycleLaws(t, o)
	if o.dense {
		contractLaw(t, o, !sc.fuzzed)
	}
	if o.tracer != nil && o.tracer.Sampled != o.tracer.Attempts/traceStride {
		t.Errorf("tracer %+v: want floor(attempts/%d) sampled", *o.tracer, traceStride)
	}
	if sc.fuzzed {
		return
	}
	// Coverage: the row exercises what the laws above speak of.
	if o.tracer != nil && o.tracer.Sampled == 0 {
		t.Error("the tracer sampled nothing")
	}
	if o.stalled.Dropped() == 0 {
		t.Error("the stalled /stream subscriber dropped nothing: the slow-consumer path was not exercised")
	}
	if o.race {
		return
	}
	if snap.Total.Shadows[0].KeepAliveMBMinutes == 0 || snap.Total.Shadows[3].KeepAliveMBMinutes == 0 {
		t.Error("fixed-high or hawkes never held a slot: the stream does not turn the held lists over")
	}
	if sc.policy != "fixed" {
		if len(o.rec.Schedules) == 0 || len(o.rec.Peaks) == 0 || len(o.rec.Downgrades) == 0 {
			t.Errorf("%d schedule, %d peak and %d downgrade samples: the stream does not exercise Algorithms 1 and 2",
				len(o.rec.Schedules), len(o.rec.Peaks), len(o.rec.Downgrades))
		}
		planned := 0
		for _, ring := range o.prov.Rings() {
			for _, d := range ring {
				if d.PlannedAt >= 0 && d.Prob > 0 {
					planned++
				}
			}
		}
		if planned == 0 {
			t.Error("the provenance rings hold no plan-backed decision")
		}
	}
}

// conservation: every served invocation lands in exactly one minute of
// every ledger, the minute the policy recorded it in — the producer's own
// count, the policy's record and, minute by minute, the sample stream, the
// accountant's series and the alert engine's rollups, and telemetry's
// per-function counters — save the pending last minute's.
func conservation(t *testing.T, o *outcome) {
	t.Helper()
	total := 0
	switch {
	case o.result != nil:
		total = o.result.Invocations
	case o.stats != nil:
		total = o.stats.Invocations
	}
	if o.race && o.served != total {
		t.Errorf("Stats().Invocations = %d, invokers succeeded %d times", total, o.served)
	}
	told, unheard := 0, 0
	for _, n := range o.told {
		told += n
	}
	if o.live {
		unheard = o.pending
	}
	if told+unheard != total {
		t.Errorf("the policy was told about %d invocations (+%d pending), the producer served %d", told, unheard, total)
	}
	if o.chain == nil {
		return
	}
	seen := o.told
	if !o.live {
		seen = seen[:len(seen)-1]
	}
	owed := 0
	for _, n := range seen {
		owed += n
	}
	if owed+o.pending != total {
		t.Errorf("the observers owe %d invocations (+%d pending), the producer served %d", owed, o.pending, total)
	}
	ledger := func(name string, perMinute map[int]int) {
		t.Helper()
		for m, n := range perMinute {
			if m >= len(seen) && n != 0 {
				t.Errorf("%s holds %d invocations at minute %d, which no observer may see", name, n, m)
				return
			}
		}
		for m, want := range seen {
			if perMinute[m] != want {
				t.Errorf("%s holds %d invocations at minute %d, the policy recorded %d", name, perMinute[m], m, want)
				return
			}
		}
	}
	samples := map[int]int{}
	for _, s := range o.rec.Invocations {
		samples[s.Minute] += max(s.Count, 1)
	}
	ledger("the sample stream", samples)
	rollups := map[int]int{}
	for _, p := range o.rollups {
		rollups[p.Minute] += p.Invocations
	}
	ledger("the alert engine's rollups", rollups)
	// The accountant's series keeps a bounded window; a longer run is held to
	// its arena's cumulative ledger instead.
	arena := o.acct.Arena()
	if _, ok := o.acct.MetricAt(attribution.MetricInvocations, 0); ok {
		series := map[int]int{}
		for m := 0; m <= arena.Minute(); m++ {
			v, ok := o.acct.MetricAt(attribution.MetricInvocations, m)
			if !ok {
				t.Fatalf("the accountant has no invocations sample for minute %d", m)
			}
			series[m] = int(v)
		}
		ledger("the accountant's series", series)
	} else if n := arena.Snapshot().Total.Actual.Invocations; n != owed {
		t.Errorf("the arena's ledger holds %d invocations, the observers owe %d", n, owed)
	}
	var exposition strings.Builder
	if err := o.tel.Registry().WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	var counted float64
	for _, line := range strings.Split(exposition.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "pulse_function_invocations_total{"); ok {
			v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			counted += v
		}
	}
	if int(counted) != owed {
		t.Errorf("telemetry's counters hold %v invocations, the observers owe %d", counted, owed)
	}
}

// lifecycleLaws: a function registered mid-run has no plan until its first
// invocation is recorded, so that invocation is cold; from the minute after
// a function retires, no sample holds or serves its slot.
func lifecycleLaws(t *testing.T, o *outcome) {
	t.Helper()
	registered := map[int]int{}
	for _, r := range o.rec.Registers {
		registered[r.Function] = r.Minute
	}
	deadFrom := map[int]int{}
	for _, d := range o.rec.Deregisters {
		deadFrom[d.Function] = d.Minute + 1
	}
	seen := map[int]bool{}
	for _, s := range o.rec.Invocations {
		if from, dead := deadFrom[s.Function]; dead && s.Minute >= from {
			t.Fatalf("slot %d retired from minute %d but served at minute %d", s.Function, from, s.Minute)
		}
		reg, late := registered[s.Function]
		if !late || seen[s.Function] {
			continue
		}
		seen[s.Function] = true
		if !s.Cold || s.Minute < reg {
			t.Errorf("slot %d registered at minute %d: first invocation at minute %d cold=%v, want a cold one no earlier",
				s.Function, reg, s.Minute, s.Cold)
		}
	}
	for _, s := range o.rec.KeepAlives {
		if from, dead := deadFrom[s.Function]; dead && s.Minute >= from && s.Variant != cluster.NoVariant {
			t.Fatalf("slot %d retired from minute %d but kept variant %d at minute %d", s.Function, from, s.Variant, s.Minute)
		}
	}
}

// contractLaw: the keep-alive stream is a pure function of the decision
// vectors — function f has a sample in minute t iff it holds a variant in t
// or held one in t−1. The reference walks every slot, so its logged
// decisions are the oracle every sparse producer is compared against.
func contractLaw(t *testing.T, o *outcome, coverage bool) {
	t.Helper()
	cat := models.PaperCatalog()
	famOf := slices.Clone(o.initAsg)
	for _, r := range o.rec.Registers {
		famOf = append(famOf, r.Family)
	}
	var want []telemetry.KeepAliveSample
	releases, dense := 0, 0
	for m, d := range o.decisions {
		dense += len(d)
		for fn, vi := range d {
			if vi != cluster.NoVariant {
				v := cat.Families[famOf[fn]].Variants[vi]
				want = append(want, telemetry.KeepAliveSample{Minute: m, Function: fn, Variant: vi, VariantName: v.Name, MemMB: v.MemoryMB})
			} else if m > 0 && fn < len(o.decisions[m-1]) && o.decisions[m-1][fn] != cluster.NoVariant {
				want = append(want, telemetry.KeepAliveSample{Minute: m, Function: fn, Variant: cluster.NoVariant})
				releases++
			}
		}
	}
	if coverage && (releases == 0 || len(want) == releases || o.peaks == 0 || len(want) >= dense ||
		o.tr.HasChurn() && len(o.rec.Deregisters) == 0) {
		t.Fatalf("the oracle is trivial: %d samples (%d releases) against a dense %d, %d departures, %d peak minutes",
			len(want), releases, dense, len(o.rec.Deregisters), o.peaks)
	}
	if !reflect.DeepEqual(o.rec.KeepAlives, want) {
		t.Errorf("%d keep-alive samples; the iff-rule over the dense decisions owes %d", len(o.rec.KeepAlives), len(want))
	}
}

// checkChurn: a churn row has arrivals that are invoked, departures, and
// identity-keyed rings for more functions than were live at minute 0; and
// /why answers a minute a function spent resting.
func checkChurn(t *testing.T, outs []*outcome) {
	var o *outcome
	for _, x := range outs {
		if x.live && x.chain != nil {
			o = x
			break
		}
	}
	invoked := 0
	for _, r := range o.rec.Registers {
		if slices.ContainsFunc(o.rec.Invocations, func(s telemetry.InvocationSample) bool { return s.Function == r.Function }) {
			invoked++
		}
	}
	initial := 0
	for _, f := range o.tr.Functions {
		if f.Start == 0 {
			initial++
		}
	}
	rings := o.prov.Rings()
	if invoked == 0 || len(o.rec.Deregisters) == 0 || len(rings) <= initial {
		t.Fatalf("%d arrivals invoked, %d departures, %d rings from %d initial functions: the stream does not churn",
			invoked, len(o.rec.Deregisters), len(rings), initial)
	}
	// Rings skip resting minutes, so some ring has a gap; /why answers a
	// minute inside it as resting, the recorded minute before it as
	// recorded, and a minute not yet closed with 404.
	var name string
	var gap int
	for n, ring := range rings {
		for i := 1; i < len(ring); i++ {
			if ring[i].Minute > ring[i-1].Minute+1 {
				name, gap = n, ring[i-1].Minute+1
			}
		}
	}
	if name == "" {
		t.Fatal("no ring skips a minute: the stream never rests, or the recorder stores resting minutes")
	}
	cat := models.PaperCatalog()
	pol, err := policy.NewFixed(cat, models.Assignment{0}, 0, policy.QualityHighest)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{Catalog: cat, Assignment: models.Assignment{0}, Policy: pol, Clock: runtime.NewManualClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	api, err := runtime.NewInstrumentedAPI(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	api.AttachProvenance(o.prov)
	why := func(minute int) (int, provenance.Explanation) {
		w := httptest.NewRecorder()
		api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/why?fn=%s&minute=%d", name, minute), nil))
		var ex provenance.Explanation
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil {
				t.Fatal(err)
			}
		}
		return w.Code, ex
	}
	if code, ex := why(gap); code != http.StatusOK || len(ex.Decisions) != 1 ||
		!ex.Decisions[0].Resting || ex.Decisions[0].Minute != gap || ex.Decisions[0].Chosen != -1 {
		t.Errorf("/why on resting minute %d of %q: status %d, %+v; want one resting decision", gap, name, code, ex.Decisions)
	}
	if code, ex := why(gap - 1); code != http.StatusOK || len(ex.Decisions) != 1 || ex.Decisions[0].Resting {
		t.Errorf("/why on recorded minute %d of %q: status %d, %+v; want the recorded decision", gap-1, name, code, ex.Decisions)
	}
	if code, _ := why(o.tr.Horizon + 5); code != http.StatusNotFound {
		t.Errorf("/why on a minute not yet closed: status %d, want 404", code)
	}
}
