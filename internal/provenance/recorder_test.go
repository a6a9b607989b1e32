package provenance

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

func testRecorder(t *testing.T, window int) (*Recorder, *models.Catalog) {
	t.Helper()
	cat := models.PaperCatalog()
	rec, err := NewRecorder(RecorderConfig{
		Catalog:    cat,
		Assignment: models.Assignment{0, 1},
		Names:      []string{"fn-0", "fn-1"},
		Window:     window,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec, cat
}

func TestNewRecorderValidation(t *testing.T) {
	cat := models.PaperCatalog()
	cases := []struct {
		name string
		cfg  RecorderConfig
	}{
		{"nil catalog", RecorderConfig{Assignment: models.Assignment{0}, Names: []string{"a"}}},
		{"bad assignment", RecorderConfig{Catalog: cat, Assignment: models.Assignment{99}, Names: []string{"a"}}},
		{"name count", RecorderConfig{Catalog: cat, Assignment: models.Assignment{0, 1}, Names: []string{"a"}}},
		{"empty name", RecorderConfig{Catalog: cat, Assignment: models.Assignment{0}, Names: []string{""}}},
		{"dup name", RecorderConfig{Catalog: cat, Assignment: models.Assignment{0, 1}, Names: []string{"a", "a"}}},
	}
	for _, tc := range cases {
		if _, err := NewRecorder(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	rec, err := NewRecorder(RecorderConfig{Catalog: cat, Assignment: models.Assignment{0}, Names: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.window != DefaultWindow {
		t.Errorf("default window %d, want %d", rec.window, DefaultWindow)
	}
}

// The happy path: a schedule commits a plan, the keep-alive decision honors
// it, the minute rollup closes it — and /why shows the plan as the
// unconstrained choice with its invocation probability.
func TestRecorderAssemblesPlannedDecision(t *testing.T) {
	rec, cat := testRecorder(t, 8)
	fam := cat.Families[0]

	rec.ObserveSchedule(telemetry.ScheduleSample{
		Minute:   0,
		Function: 0,
		Plan:     []int{1, 0},
		Probs:    []float64{0.75, 0.25},
	})
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{
		Minute: 1, Function: 0, Variant: 1, MemMB: fam.Variants[1].MemoryMB,
	})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 1, KeepAliveMB: fam.Variants[1].MemoryMB})

	ex, err := rec.Explain("fn-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Function != "fn-0" || !ex.Active || ex.Family != fam.Name || len(ex.Decisions) != 1 {
		t.Fatalf("explanation %+v", ex)
	}
	d := ex.Decisions[0]
	if d.Minute != 1 || d.Chosen != 1 || d.ChosenName != fam.Variants[1].Name {
		t.Errorf("chosen: %+v", d)
	}
	if d.Planned != 1 || d.Prob != 0.75 || d.PlannedAt != 0 || d.Downgraded {
		t.Errorf("plan provenance: %+v", d)
	}
	if d.Peak || d.BudgetBeforeMB != d.BudgetAfterMB {
		t.Errorf("no-peak decision carries peak context: %+v", d)
	}

	// fn-1 made no decision this minute: its ring stays empty.
	ex1, err := rec.Explain("fn-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex1.Decisions) != 0 {
		t.Errorf("fn-1 decisions %v, want none", ex1.Decisions)
	}
}

// A peak-minute downgrade: the decision must carry the Algorithm 1 episode
// context, the Algorithm 2 utility breakdown, the planned (pre-downgrade)
// variant, and the cluster budget before/after the downgrade freed memory.
func TestRecorderAssemblesDowngradedDecision(t *testing.T) {
	rec, cat := testRecorder(t, 8)
	fam := cat.Families[0]
	from, to := 2, 0
	freed := fam.Variants[from].MemoryMB - fam.Variants[to].MemoryMB
	after := 512.0

	rec.ObserveSchedule(telemetry.ScheduleSample{
		Minute: 4, Function: 0, Plan: []int{from}, Probs: []float64{0.9},
	})
	rec.ObservePeak(telemetry.PeakSample{Minute: 5, Enter: true, PriorMB: 900, TargetMB: 700})
	rec.ObserveDowngrade(telemetry.DowngradeSample{
		Minute: 5, Function: 0, FromVariant: from, ToVariant: to, Ai: 0.1, Pr: 0.5, Ip: 0.9,
	})
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{
		Minute: 5, Function: 0, Variant: to, MemMB: fam.Variants[to].MemoryMB,
	})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 5, KeepAliveMB: after})

	ex, err := rec.ExplainMinute("fn-0", 5)
	if err != nil {
		t.Fatal(err)
	}
	d := ex.Decisions[0]
	if !d.Downgraded || d.Chosen != to || d.Planned != from {
		t.Errorf("downgrade provenance: %+v", d)
	}
	if d.Ai != 0.1 || d.Pr != 0.5 || d.Ip != 0.9 || d.Uv != 1.5 {
		t.Errorf("utility breakdown: %+v", d)
	}
	if !d.Peak || d.PriorMB != 900 || d.TargetMB != 700 {
		t.Errorf("peak context: %+v", d)
	}
	if d.BudgetAfterMB != after || d.BudgetBeforeMB != after+freed {
		t.Errorf("budgets: before %v after %v, want before %v after %v",
			d.BudgetBeforeMB, d.BudgetAfterMB, after+freed, after)
	}

	// Exiting the episode clears the context for later minutes.
	rec.ObservePeak(telemetry.PeakSample{Minute: 6, Enter: false})
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 6, Function: 0, Variant: to})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 6, KeepAliveMB: after})
	ex, err = rec.ExplainMinute("fn-0", 6)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Decisions[0].Peak {
		t.Errorf("minute after episode still marked peak: %+v", ex.Decisions[0])
	}
}

// A keep-alive with no covering plan and no downgrade (minute 0, baseline
// policies) reports the chosen variant as its own unconstrained choice.
func TestRecorderNoPlanFallback(t *testing.T) {
	rec, _ := testRecorder(t, 8)
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 0, Function: 1, Variant: 0})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 0})
	ex, err := rec.ExplainMinute("fn-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ex.Decisions[0]
	if d.Planned != d.Chosen || d.PlannedAt != -1 || d.Prob != 0 {
		t.Errorf("fallback decision: %+v", d)
	}
}

// The ring holds exactly Window decisions: older minutes fall off, /why?n=
// trims further, and ExplainMinute misses evicted minutes with an error
// that names the window.
func TestRecorderRingWindow(t *testing.T) {
	const window = 4
	rec, _ := testRecorder(t, window)
	for m := 0; m < 7; m++ {
		rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: 0, Variant: 0})
		rec.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
	ex, err := rec.Explain("fn-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	minutes := make([]int, len(ex.Decisions))
	for i, d := range ex.Decisions {
		minutes[i] = d.Minute
	}
	if !reflect.DeepEqual(minutes, []int{3, 4, 5, 6}) {
		t.Errorf("ring minutes %v, want [3 4 5 6]", minutes)
	}
	ex, err = rec.Explain("fn-0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Decisions) != 2 || ex.Decisions[1].Minute != 6 {
		t.Errorf("Explain n=2: %+v", ex.Decisions)
	}
	if _, err := rec.ExplainMinute("fn-0", 1); err == nil || !strings.Contains(err.Error(), "4") {
		t.Errorf("evicted minute: err %v, want window-naming error", err)
	}
	if _, err := rec.Explain("nobody", 0); err == nil {
		t.Error("unknown function accepted")
	}
}

// Under the sparse KeepAlive contract the ring holds the last Window
// NON-RESTING decisions: idle minutes deliver only the minute rollup and
// leave it alone. A closed minute missing between two recorded decisions (or
// after the last) is answered as resting; one older than a wrapped ring's
// reach, or not closed yet, is still an error.
func TestRecorderRestingMinutes(t *testing.T) {
	const window = 4
	rec, _ := testRecorder(t, window)
	hold := func(m int) {
		rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: 0, Variant: 1})
		rec.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
	idle := func(m int) { rec.ObserveMinute(telemetry.MinuteSample{Minute: m}) }

	hold(2)
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 3, Function: 0, Variant: noVariant}) // release edge
	idle(3)
	for m := 4; m < 40; m++ {
		idle(m)
	}
	hold(40)
	idle(41)

	ex, err := rec.Explain("fn-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	var minutes []int
	for _, d := range ex.Decisions {
		minutes = append(minutes, d.Minute)
	}
	if !reflect.DeepEqual(minutes, []int{2, 3, 40}) {
		t.Fatalf("ring minutes %v, want the three non-resting decisions [2 3 40]", minutes)
	}
	if d := ex.Decisions[1]; d.Chosen != noVariant || d.Resting {
		t.Errorf("release edge recorded as %+v, want a real left-cold decision", d)
	}

	for _, m := range []int{0, 20, 41} { // before the first (unwrapped ring), between two, after the last
		ex, err := rec.ExplainMinute("fn-0", m)
		if err != nil {
			t.Fatalf("resting minute %d: %v", m, err)
		}
		d := ex.Decisions[0]
		if !d.Resting || d.Minute != m || d.Chosen != noVariant || d.Planned != noVariant || d.PlannedAt != -1 {
			t.Errorf("minute %d answered %+v, want resting cold with no plan", m, d)
		}
	}
	if ex, err := rec.ExplainMinute("fn-0", 40); err != nil || ex.Decisions[0].Resting || ex.Decisions[0].Chosen != 1 {
		t.Errorf("recorded minute 40: %+v, %v", ex.Decisions, err)
	}
	if ex, err := rec.ExplainMinute("fn-1", 7); err != nil || !ex.Decisions[0].Resting {
		t.Errorf("never-held function: %+v, %v, want resting", ex.Decisions, err)
	}
	if _, err := rec.ExplainMinute("fn-0", 42); err == nil {
		t.Error("a minute the recorder has not closed was explained")
	}

	// Wrap the ring: minutes before its oldest entry are out of reach again.
	for m := 50; m < 50+window; m++ {
		hold(m)
	}
	if _, err := rec.ExplainMinute("fn-0", 45); err == nil || !strings.Contains(err.Error(), "4") {
		t.Errorf("minute before a wrapped ring's reach: err %v, want window-naming error", err)
	}
}

// Rings grow on demand and idle minutes cost nothing: a function with ten
// decisions holds two ring blocks, not the window's eight, a function with
// none holds none, and a minute that delivers only its rollup allocates
// nothing. Growing allocates the ring blocks themselves — one per ringBlock
// decisions, never a copy of what is already recorded — and a full ring
// nothing at all.
func TestRecorderRingGrowsOnDemandIdleMinuteNoAllocs(t *testing.T) {
	rec, _ := testRecorder(t, DefaultWindow)
	m := 0
	for ; m < 10; m++ {
		rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: 0, Variant: 0})
		rec.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
	e := rec.byName["fn-0"]
	if want := (10 + ringBlock - 1) / ringBlock; e.n != 10 || len(e.blocks) != want {
		t.Errorf("%d decisions in %d ring blocks, want 10 in %d", e.n, len(e.blocks), want)
	}
	if b := rec.byName["fn-1"].blocks; b != nil {
		t.Errorf("a function with no decision owns %d ring blocks", len(b))
	}
	if allocs := testing.AllocsPerRun(200, func() {
		rec.ObserveMinute(telemetry.MinuteSample{Minute: m})
		m++
	}); allocs != 0 {
		t.Errorf("idle minute allocates %v, want 0", allocs)
	}
	// The blocks still to come, plus the block list (8 pointers) doubling.
	// (Counted by hand: AllocsPerRun's warm-up call would do the growing.)
	most := uint64(DefaultWindow/ringBlock - len(e.blocks) + 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < DefaultWindow; i++ {
		rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: 0, Variant: 0})
		rec.ObserveMinute(telemetry.MinuteSample{Minute: m})
		m++
	}
	runtime.ReadMemStats(&after)
	if growing := after.Mallocs - before.Mallocs; growing > most {
		t.Errorf("growing a ring from 10 decisions to the window allocated %d times, want at most %d", growing, most)
	}
	// Steady state at the window: holder minutes wrap in place.
	if allocs := testing.AllocsPerRun(200, func() {
		rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: 0, Variant: 0})
		rec.ObserveMinute(telemetry.MinuteSample{Minute: m})
		m++
	}); allocs != 0 {
		t.Errorf("holder minute on a full ring allocates %v, want 0", allocs)
	}
	if len(e.blocks)*ringBlock != DefaultWindow {
		t.Errorf("full ring holds %d records, want %d", len(e.blocks)*ringBlock, DefaultWindow)
	}
}

// Identity keying across churn: a deregistered name keeps its ring, a
// re-registration under the same name continues it at the new slot, and
// samples against the retired slot (or a stale plan mirror) are ignored.
func TestRecorderChurnKeepsIdentity(t *testing.T) {
	rec, _ := testRecorder(t, 8)
	rec.ObserveSchedule(telemetry.ScheduleSample{Minute: 0, Function: 1, Plan: []int{1}, Probs: []float64{0.6}})
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 1, Variant: 1})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 1})

	rec.ObserveDeregister(telemetry.DeregisterSample{Minute: 1, Function: 1, Name: "fn-1"})
	ex, err := rec.Explain("fn-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Active || len(ex.Decisions) != 1 {
		t.Fatalf("after deregister: %+v", ex)
	}

	// Samples against the tombstoned slot must not resurrect anything.
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 2, Function: 1, Variant: 0})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 2})

	// Same name, new slot: the ring continues, the old plan mirror is gone.
	rec.ObserveRegister(telemetry.RegisterSample{Minute: 3, Function: 2, Name: "fn-1", Family: 1})
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 3, Function: 2, Variant: 0})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 3})

	ex, err = rec.Explain("fn-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Active || ex.Slot != 2 {
		t.Fatalf("after re-register: %+v", ex)
	}
	minutes := make([]int, len(ex.Decisions))
	for i, d := range ex.Decisions {
		minutes[i] = d.Minute
	}
	if !reflect.DeepEqual(minutes, []int{1, 3}) {
		t.Errorf("ring minutes across churn %v, want [1 3] (minute 2 hit a tombstone)", minutes)
	}
	if d := ex.Decisions[1]; d.PlannedAt != -1 || d.Slot != 2 {
		t.Errorf("new incarnation decision %+v, want cleared plan mirror and slot 2", d)
	}
	var names []string
	for _, e := range rec.entries {
		names = append(names, e.name)
	}
	if !reflect.DeepEqual(names, []string{"fn-0", "fn-1"}) {
		t.Errorf("recorded identities = %v", names)
	}
}

// A brand-new name registered online gets its own entry and ring.
func TestRecorderOnlineRegister(t *testing.T) {
	rec, _ := testRecorder(t, 8)
	rec.ObserveRegister(telemetry.RegisterSample{Minute: 1, Function: 2, Name: "late", Family: 0})
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 2, Variant: 0})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 1})
	ex, err := rec.Explain("late", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Decisions) != 1 || ex.Slot != 2 {
		t.Errorf("late arrival: %+v", ex)
	}
	rings := rec.Rings()
	if len(rings) != 3 || len(rings["late"]) != 1 {
		t.Errorf("Rings() = %v", rings)
	}
}

// The self series: step samples feed step_latency_us and seqlock_retries,
// SelfSeries windows them oldest-first, and unknown metrics are rejected.
func TestRecorderSelfSeries(t *testing.T) {
	rec, _ := testRecorder(t, 8)
	if pts, ok := rec.SelfSeries(MetricStepLatencyUs, 10); !ok || len(pts) != 0 {
		t.Fatalf("empty series: %v %v", pts, ok)
	}
	for m := 0; m < 5; m++ {
		rec.ObserveStep(telemetry.StepSample{
			Minute:         m,
			Seconds:        float64(m) * 1e-6,
			SeqlockRetries: uint64(10 * m),
		})
	}
	pts, ok := rec.SelfSeries(MetricStepLatencyUs, 3)
	if !ok || len(pts) != 3 {
		t.Fatalf("step series: %v %v", pts, ok)
	}
	if pts[0].Minute != 2 || pts[2].Minute != 4 || pts[2].Value != 4 {
		t.Errorf("step series %v, want minutes 2..4 with µs values", pts)
	}
	pts, ok = rec.SelfSeries(MetricSeqlockRetries, 0)
	if !ok || len(pts) != 5 || pts[4].Value != 40 {
		t.Errorf("retries series %v %v", pts, ok)
	}
	if _, ok := rec.SelfSeries("no_such_metric", 10); ok {
		t.Error("unknown self metric accepted")
	}
	if got := SelfMetrics(); !reflect.DeepEqual(got, []string{MetricStepLatencyUs, MetricSeqlockRetries}) {
		t.Errorf("SelfMetrics() = %v", got)
	}
}

// Recording a decision on an idle recorder path must not allocate: the
// rings are fixed-capacity and the recorder's pending list is reused every
// minute. (The first minute lazily allocates each touched function's ring;
// steady state is pinned at zero.) Run by the CI alloc job.
func TestRecorderSteadyStateZeroAllocs(t *testing.T) {
	rec, _ := testRecorder(t, 8)
	// Warm: first decision allocates fn-0's ring and plan mirror.
	rec.ObserveSchedule(telemetry.ScheduleSample{Minute: 0, Function: 0, Plan: []int{1, 0}, Probs: []float64{0.5, 0.1}})
	rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 0, Variant: 1})
	rec.ObserveMinute(telemetry.MinuteSample{Minute: 1})

	minute := 2
	sched := telemetry.ScheduleSample{Plan: []int{1, 0}, Probs: []float64{0.5, 0.1}}
	if allocs := testing.AllocsPerRun(500, func() {
		sched.Minute = minute - 1
		rec.ObserveSchedule(sched)
		rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: minute, Function: 0, Variant: 1})
		rec.ObserveStep(telemetry.StepSample{Minute: minute, Seconds: 1e-5})
		rec.ObserveMinute(telemetry.MinuteSample{Minute: minute})
		minute++
	}); allocs != 0 {
		t.Errorf("steady-state recording allocates %v/op, want 0", allocs)
	}
}

// The rings index the catalog where the old ones stored names, through int8
// and 14-bit fields: a catalog that does not fit them is rejected up front,
// and one at the limits works.
func TestNewRecorderCatalogLimits(t *testing.T) {
	family := func(name string, variants int) models.Family {
		f := models.Family{Name: name}
		for v := 0; v < variants; v++ {
			f.Variants = append(f.Variants, models.Variant{
				Name: fmt.Sprintf("%s-%d", name, v), AccuracyPct: 50, ExecSec: 1, MemoryMB: float64(v + 1),
			})
		}
		return f
	}
	build := func(families, variants int) error {
		cat := &models.Catalog{}
		for f := 0; f < families; f++ {
			cat.Families = append(cat.Families, family(fmt.Sprintf("f%d", f), 1))
		}
		last := families - 1
		cat.Families[last] = family("wide", variants)
		rec, err := NewRecorder(RecorderConfig{Catalog: cat, Assignment: models.Assignment{last}, Names: []string{"a"}})
		if err != nil {
			return err
		}
		// The last variant of the last family survives the round trip.
		rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 0, Function: 0, Variant: variants - 1, MemMB: 1})
		rec.ObserveMinute(telemetry.MinuteSample{Minute: 0})
		ex, err := rec.Explain("a", 0)
		if err != nil {
			return err
		}
		if want := fmt.Sprintf("wide-%d", variants-1); len(ex.Decisions) != 1 || ex.Decisions[0].ChosenName != want || ex.Family != "wide" {
			return fmt.Errorf("round trip at the limit: %+v, want variant %s of family wide", ex, want)
		}
		return nil
	}
	for _, tc := range []struct {
		name               string
		families, variants int
		ok                 bool
	}{
		{"at both limits", maxFamilies, maxVariants, true},
		{"one family too many", maxFamilies + 1, 2, false},
		{"one variant too many", 3, maxVariants + 1, false},
	} {
		if err := build(tc.families, tc.variants); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted = %v", tc.name, err, tc.ok)
		}
	}
}

// Samples a foreign feed could send — a slot outside the table or already
// deregistered, a variant or family index outside the catalog, a minute the
// record cannot hold — are dropped without panicking and leave no trace; the
// well-formed samples around them are recorded as usual.
func TestRecorderForeignFeed(t *testing.T) {
	const huge = math.MaxInt
	for _, tc := range []struct {
		name string
		feed func(rec *Recorder)
	}{
		{"negative slot", func(rec *Recorder) {
			rec.ObserveSchedule(telemetry.ScheduleSample{Minute: 0, Function: -1, Plan: []int{0}})
			rec.ObserveDowngrade(telemetry.DowngradeSample{Minute: 1, Function: -1, FromVariant: 1})
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: -1, Variant: 0})
			rec.ObserveDeregister(telemetry.DeregisterSample{Minute: 1, Function: -1})
			rec.ObserveRegister(telemetry.RegisterSample{Minute: 1, Function: -1, Name: "ghost"})
		}},
		{"slot beyond the table", func(rec *Recorder) {
			rec.ObserveSchedule(telemetry.ScheduleSample{Minute: 0, Function: huge, Plan: []int{0}})
			rec.ObserveDowngrade(telemetry.DowngradeSample{Minute: 1, Function: 2, FromVariant: 1})
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: huge, Variant: 0})
			rec.ObserveDeregister(telemetry.DeregisterSample{Minute: 1, Function: 99})
			rec.ObserveRegister(telemetry.RegisterSample{Minute: 1, Function: huge, Name: "ghost"})
		}},
		{"variant outside the family", func(rec *Recorder) {
			rec.ObserveSchedule(telemetry.ScheduleSample{Minute: 0, Function: 0, Plan: []int{3, -2, huge}, Probs: []float64{1, 1, 1}})
			rec.ObserveDowngrade(telemetry.DowngradeSample{Minute: 1, Function: 0, FromVariant: 3, ToVariant: 200})
			rec.ObserveDowngrade(telemetry.DowngradeSample{Minute: 1, Function: 0, FromVariant: -2})
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 0, Variant: 3})
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 0, Variant: -2})
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 1, Variant: 2}) // BERT has two
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 0, Variant: huge})
		}},
		{"family outside the catalog", func(rec *Recorder) {
			rec.ObserveRegister(telemetry.RegisterSample{Minute: 1, Function: 2, Name: "ghost", Family: 5})
			rec.ObserveRegister(telemetry.RegisterSample{Minute: 1, Function: 2, Name: "ghost", Family: -1})
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 2, Variant: 0})
		}},
		{"minute outside the record", func(rec *Recorder) {
			for _, m := range []int{-1, math.MaxInt32 + 1, huge} {
				rec.ObserveSchedule(telemetry.ScheduleSample{Minute: m, Function: 0, Plan: []int{0}})
				rec.ObserveDowngrade(telemetry.DowngradeSample{Minute: m, Function: 0, FromVariant: 1})
				rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: m, Function: 0, Variant: 0})
				rec.ObserveMinute(telemetry.MinuteSample{Minute: m})
			}
			rec.ObserveSchedule(telemetry.ScheduleSample{Minute: math.MaxInt32 - 1, Function: 0, Plan: []int{0, 0, 0}})
		}},
		{"slot after its deregistration", func(rec *Recorder) {
			rec.ObserveDeregister(telemetry.DeregisterSample{Minute: 0, Function: 0, Name: "fn-0"})
			rec.ObserveDeregister(telemetry.DeregisterSample{Minute: 0, Function: 0, Name: "fn-0"})
			rec.ObserveSchedule(telemetry.ScheduleSample{Minute: 0, Function: 0, Plan: []int{1}})
			rec.ObserveDowngrade(telemetry.DowngradeSample{Minute: 1, Function: 0, FromVariant: 1})
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 0, Variant: 0})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, _ := testRecorder(t, 4)
			tc.feed(rec)
			rec.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 1, Function: 1, Variant: 1})
			rec.ObserveMinute(telemetry.MinuteSample{Minute: 1, KeepAliveMB: 7})
			rings := rec.Rings()
			if len(rings) != 2 || len(rings["fn-0"]) != 0 {
				t.Errorf("foreign samples left a trace: %+v", rings)
			}
			if d := rings["fn-1"]; len(d) != 1 || d[0].Minute != 1 || d[0].ChosenName != "BERT-Large" || d[0].Downgraded || d[0].BudgetBeforeMB != 7 {
				t.Errorf("the well-formed decision beside them: %+v", d)
			}
		})
	}
}
