package telemetry

import (
	"io"
	"math/rand"
	"strconv"
	"testing"
)

// The Nop observer is the uninstrumented baseline: calling it must not
// allocate, so producers can emit samples unconditionally on hot paths.
func TestNopObserverZeroAllocs(t *testing.T) {
	var obs Observer = Nop{}
	sample := InvocationSample{Minute: 3, Function: 7, Variant: "gpt-small", Count: 1, ServiceSec: 0.25, AccuracyPct: 88}
	plan := []int{0, 1, 2}
	probs := []float64{0.1, 0.5, 0.9}
	allocs := testing.AllocsPerRun(1000, func() {
		obs.ObserveInvocation(sample)
		obs.ObserveKeepAlive(KeepAliveSample{Minute: 3, Function: 7, Variant: 1, VariantName: "gpt-small", MemMB: 512})
		obs.ObserveMinute(MinuteSample{Minute: 3, KeepAliveMB: 512})
		obs.ObserveSchedule(ScheduleSample{Minute: 3, Function: 7, Plan: plan, Probs: probs})
		obs.ObservePeak(PeakSample{Minute: 3, Enter: true, KeepAliveMB: 512, PriorMB: 256, TargetMB: 282})
		obs.ObserveDowngrade(DowngradeSample{Minute: 3, Function: 7, FromVariant: 2, ToVariant: 1, Ai: 1, Pr: 0.5, Ip: 0.2})
	})
	if allocs != 0 {
		t.Errorf("Nop observer allocates %v per run, want 0", allocs)
	}
}

// The shard buffer stages samples and replays them without allocating
// once its slices have grown to the per-minute working set: the sharded
// controller flushes one buffer per shard every minute, so a steady-state
// allocation here would show up on every minute tick.
func TestBufferSteadyStateZeroAllocs(t *testing.T) {
	var buf Buffer
	plan := []int{0, 1, 2}
	probs := []float64{0.1, 0.5, 0.9}
	fill := func() {
		for i := 0; i < 16; i++ {
			buf.ObserveSchedule(ScheduleSample{Minute: i, Function: i, Plan: plan, Probs: probs})
			buf.ObservePeak(PeakSample{Minute: i, Enter: true})
			buf.ObserveDowngrade(DowngradeSample{Minute: i, Function: i})
		}
	}
	fill()
	buf.FlushTo(Nop{})
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		buf.FlushTo(Nop{})
	})
	if allocs != 0 {
		t.Errorf("buffer fill+flush allocates %v per run at steady state, want 0", allocs)
	}
}

// The engine's self samples and peak transitions do not allocate either,
// once a shard's scan histogram exists.
func TestSeriesUpdateZeroAllocs(t *testing.T) {
	tel, err := New(Config{EventCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	tel.ObserveScan(ScanSample{Shard: 3, Seconds: 1e-4})
	allocs := testing.AllocsPerRun(1000, func() {
		tel.ObserveStep(StepSample{Seconds: 2e-3})
		tel.ObserveScan(ScanSample{Shard: 3, Seconds: 1e-4})
		tel.ObserveScan(ScanSample{Shard: -1, Seconds: 1e-5})
		tel.ObserveFlush(FlushSample{Seconds: 1e-6})
		tel.ObservePeak(PeakSample{Enter: true})
	})
	if allocs != 0 {
		t.Errorf("series update allocates %v per run, want 0", allocs)
	}
}

// Every per-function stream into a Telemetry is allocation-free once the
// slot's series are resolved: the invocation hit path, holders (unchanged,
// switching variant, released and re-held), downgrades, and schedules — whose
// plan and probabilities the decision log copies into storage its ring slots
// own. Run by the CI alloc job.
func TestTelemetrySteadyStateZeroAllocs(t *testing.T) {
	tel, err := New(Config{EventCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, probs := []int{2, 1, 0}, []float64{0.9, 0.5, 0.1}
	variants := []string{"lo", "hi"}
	minute := 0
	step := func() {
		for fn := 0; fn < 3; fn++ {
			v := (fn + minute/2) % 2 // switches every other minute
			tel.ObserveInvocation(InvocationSample{Minute: minute, Function: fn, Variant: variants[v], Cold: minute%3 == 0, Count: 1, ServiceSec: 0.3})
			if minute%5 == 4 {
				tel.ObserveKeepAlive(KeepAliveSample{Minute: minute, Function: fn, Variant: -1})
			} else {
				tel.ObserveKeepAlive(KeepAliveSample{Minute: minute, Function: fn, Variant: v, VariantName: variants[v], MemMB: float64(64 * (v + 1))})
			}
			tel.ObserveSchedule(ScheduleSample{Minute: minute, Function: fn, Plan: plan, Probs: probs})
			tel.ObserveDowngrade(DowngradeSample{Minute: minute, Function: fn, FromVariant: 1, ToVariant: 0, Ai: 0.1, Pr: 0.2, Ip: 0.3})
		}
		tel.ObserveMinute(MinuteSample{Minute: minute, KeepAliveMB: 192})
		minute++
	}
	for minute < 30 { // resolve every series, fill every ring slot's storage
		step()
	}
	if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
		t.Errorf("steady-state telemetry minute allocates %v/op, want 0", allocs)
	}
}

// A sample naming a never-seen slot allocates nothing when the slot's chunk
// exists — no series object, label string or map entry is made per function
// — and a sample opening a chunk costs O(1) allocations. Run by the CI alloc
// job.
func TestTelemetryFirstTouchDoesNotAllocate(t *testing.T) {
	tel, err := New(Config{EventCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, probs := []int{2, 1, 0}, []float64{0.9, 0.5, 0.1}
	touch := func(fn int) {
		tel.ObserveInvocation(InvocationSample{Function: fn, Variant: "hi", Cold: true, Count: 1, ServiceSec: 1.5})
		tel.ObserveInvocation(InvocationSample{Function: fn, Variant: "lo", Count: 3, ServiceSec: 0.2})
		tel.ObserveKeepAlive(KeepAliveSample{Function: fn, Variant: 1, VariantName: "hi", MemMB: 640})
		tel.ObserveKeepAlive(KeepAliveSample{Function: fn, Variant: 0, VariantName: "lo", MemMB: 64})
		tel.ObserveSchedule(ScheduleSample{Function: fn, Plan: plan, Probs: probs})
		tel.ObserveDowngrade(DowngradeSample{Function: fn, FromVariant: 1, ToVariant: 0})
	}
	for i := 0; i < 8; i++ { // open chunk 0, intern both names, fill the log's ring storage
		touch(0)
	}
	fn := 1
	if allocs := testing.AllocsPerRun(chunkSlots-2, func() { touch(fn); fn++ }); allocs != 0 {
		t.Errorf("first touch of a slot in an allocated chunk allocates %v, want 0", allocs)
	}
	if fn != chunkSlots {
		t.Fatalf("touched up to slot %d, want the whole first chunk", fn)
	}
	if allocs := testing.AllocsPerRun(100, func() { touch(fn); fn += chunkSlots }); allocs > 2 {
		t.Errorf("first touch opening a chunk allocates %v, want at most 2 (the chunk, the directory's growth)", allocs)
	}
}

func BenchmarkNopObserver(b *testing.B) {
	var obs Observer = Nop{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.ObserveInvocation(InvocationSample{Minute: i, Function: 7, Variant: "gpt-small", Count: 1, ServiceSec: 0.25})
	}
}

func BenchmarkTelemetryObserveInvocation(b *testing.B) {
	tel, err := New(Config{EventCapacity: 64})
	if err != nil {
		b.Fatal(err)
	}
	var obs Observer = tel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.ObserveInvocation(InvocationSample{Minute: i, Function: 7, Variant: "gpt-small", Count: 1, ServiceSec: 0.25})
	}
}

func BenchmarkTelemetryObserveStep(b *testing.B) {
	tel, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tel.ObserveStep(StepSample{Seconds: float64(i%100) / 1e4})
	}
}

func BenchmarkEventLogAppend(b *testing.B) {
	l, err := NewEventLog(4096, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(Event{Minute: i, Kind: KindMinute, Function: -1, KaMMB: 1024})
	}
}

func BenchmarkEventLogAppendJSONLSink(b *testing.B) {
	l, err := NewEventLog(4096, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(Event{Minute: i, Kind: KindMinute, Function: -1, KaMMB: 1024})
	}
}

// BenchmarkObserverMinute times one minute of the barrier-serialized sample
// stream into a Telemetry at the shape the scale benchmark steps: 100 000
// slots, 12 000 holders (1 000 of them new this minute, 1 000 switching
// variant, the rest unchanged) plus 1 000 release edges, and 1 000 functions
// invoked and re-planned. In "steady" every slot has been through a whole
// rotation before the timed minutes, so no sample is a first touch; in
// "growing" the timed minutes start from an empty Telemetry, so each of the
// first feed.cycle() of them first-touches the slots it invokes. ns/sample
// is the mean cost of one sample of the minute, invocations included.
func BenchmarkObserverMinute(b *testing.B) {
	feed := newMinuteFeed()
	for _, bc := range []struct {
		name   string
		warmup int // minutes before the timed ones
	}{{"steady", 2 * feed.cycle()}, {"growing", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			tel, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			for m := 0; m < bc.warmup; m++ {
				feed.minute(tel, m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			samples := 0
			for i := 0; i < b.N; i++ {
				samples += feed.minute(tel, bc.warmup+i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
		})
	}
}

// minuteFeed generates BenchmarkObserverMinute's stream: a seeded permutation
// of the slots is invoked a cohort per minute; a function holds its top
// variant for feedSwitch minutes after its invocation, its lowest until
// feedHold, and is released the minute after.
type minuteFeed struct {
	variants [][]string // by family: variant names, lowest first
	memMB    [][]float64
	cohortOf []int32   // the cycle minute each slot is invoked in
	cohorts  [][]int32 // by cycle minute: the slots invoked
	walk     [][]int32 // by cycle minute: holders and release edges, ascending
	plan     []int
	probs    []float64
}

const (
	feedSlots    = 100_000
	feedCohort   = 1_000
	feedSwitch   = 6
	feedHold     = 12
	feedFamilies = 5
)

func newMinuteFeed() *minuteFeed {
	f := &minuteFeed{
		cohortOf: make([]int32, feedSlots),
		plan:     []int{2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0},
		probs:    []float64{.9, .8, .7, .6, .5, .4, .3, .2, .1, .1, .1, .1},
	}
	for fam := 0; fam < feedFamilies; fam++ {
		var names []string
		var mems []float64
		for v := 0; v < 2+fam%2; v++ {
			names = append(names, "fam"+strconv.Itoa(fam)+"-v"+strconv.Itoa(v))
			mems = append(mems, float64(100*(fam+1)*(v+1)))
		}
		f.variants, f.memMB = append(f.variants, names), append(f.memMB, mems)
	}
	cycle := f.cycle()
	f.cohorts, f.walk = make([][]int32, cycle), make([][]int32, cycle)
	for i, fn := range rand.New(rand.NewSource(1)).Perm(feedSlots) {
		f.cohortOf[fn] = int32(i / feedCohort)
		f.cohorts[i/feedCohort] = append(f.cohorts[i/feedCohort], int32(fn))
	}
	for c := range f.walk {
		for fn := 0; fn < feedSlots; fn++ {
			if age := f.age(fn, c); age >= 1 && age <= feedHold+1 {
				f.walk[c] = append(f.walk[c], int32(fn))
			}
		}
	}
	return f
}

func (f *minuteFeed) cycle() int { return feedSlots / feedCohort }

// age is the number of minutes since fn was last invoked, at minute m.
func (f *minuteFeed) age(fn, m int) int {
	return ((m-int(f.cohortOf[fn]))%f.cycle() + f.cycle()) % f.cycle()
}

// minute feeds minute m to obs and returns the number of samples delivered.
func (f *minuteFeed) minute(obs Observer, m int) int {
	c := m % f.cycle()
	for _, slot := range f.walk[c] {
		fn := int(slot)
		fam := fn % feedFamilies
		s := KeepAliveSample{Minute: m, Function: fn, Variant: -1}
		if age := f.age(fn, m); age <= feedHold {
			if age <= feedSwitch {
				s.Variant = len(f.variants[fam]) - 1
			} else {
				s.Variant = 0
			}
			s.VariantName, s.MemMB = f.variants[fam][s.Variant], f.memMB[fam][s.Variant]
		}
		obs.ObserveKeepAlive(s)
	}
	for _, slot := range f.cohorts[c] {
		fn := int(slot)
		fam := fn % feedFamilies
		top := len(f.variants[fam]) - 1
		obs.ObserveInvocation(InvocationSample{Minute: m, Function: fn, Variant: f.variants[fam][top], Cold: true, Count: 1, ServiceSec: 1.5})
		f.plan[0], f.plan[1], f.plan[2], f.plan[3], f.plan[4] = top, top, top, top, top
		obs.ObserveSchedule(ScheduleSample{Minute: m, Function: fn, Plan: f.plan, Probs: f.probs})
	}
	obs.ObserveMinute(MinuteSample{Minute: m, KeepAliveMB: float64(len(f.walk[c]))})
	return len(f.walk[c]) + 2*len(f.cohorts[c]) + 1
}
