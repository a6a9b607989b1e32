package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/trace"
)

func TestHistorySnapshotRoundTrip(t *testing.T) {
	h, err := NewHistory(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{0, 3, 5, 9, 30, 33} {
		if err := h.Record(m); err != nil {
			t.Fatal(err)
		}
	}
	snap := h.Snapshot()
	back, err := restoreHistory(20, snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.LastInvocation() != h.LastInvocation() {
		t.Errorf("lastInv: %d vs %d", back.LastInvocation(), h.LastInvocation())
	}
	if back.Observations() != h.Observations() {
		t.Errorf("observations: %d vs %d", back.Observations(), h.Observations())
	}
	for gap := 1; gap <= 30; gap++ {
		for _, blend := range []HistoryBlend{BlendBoth, BlendLocalOnly, BlendGlobalOnly} {
			if a, b := h.Probability(gap, blend), back.Probability(gap, blend); a != b {
				t.Fatalf("gap %d blend %d: %v vs %v", gap, blend, a, b)
			}
		}
	}
}

func TestRestoreHistoryRejectsBadCounts(t *testing.T) {
	if _, err := restoreHistory(10, HistorySnapshot{Global: []GapCount{{Gap: 1, Count: 0}}}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := restoreHistory(10, HistorySnapshot{Global: []GapCount{{Gap: -1, Count: 1}}}); err == nil {
		t.Error("negative gap accepted")
	}
}

func TestDetectorSnapshotRoundTrip(t *testing.T) {
	d, err := NewPeakDetector(0.1, 5, PriorAlgorithm1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kam := range []float64{100, 200, 0, 300, 0} {
		if err := d.Record(kam); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	back, err := restoreDetector(0.1, 5, PriorAlgorithm1, snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Elapsed() != d.Elapsed() {
		t.Errorf("elapsed: %d vs %d", back.Elapsed(), d.Elapsed())
	}
	if back.PriorKaM() != d.PriorKaM() {
		t.Errorf("prior: %v vs %v", back.PriorKaM(), d.PriorKaM())
	}
	if back.IsPeak(500) != d.IsPeak(500) {
		t.Error("peak verdicts differ after restore")
	}
}

func TestDetectorSnapshotInfinityEncodes(t *testing.T) {
	// A never-active detector carries +Inf lastNonZero, which must survive
	// a JSON round trip (encoded as -1).
	d, err := NewPeakDetector(0.1, 3, PriorAlgorithm1)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Record(0)
	snap := d.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
	var back DetectorSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreDetector(0.1, 3, PriorAlgorithm1, back)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(restored.PriorKaM(), 1) {
		t.Errorf("restored prior = %v, want +Inf", restored.PriorKaM())
	}
}

func TestRestoreDetectorValidation(t *testing.T) {
	if _, err := restoreDetector(0.1, 3, PriorAlgorithm1, DetectorSnapshot{Elapsed: -1}); err == nil {
		t.Error("negative elapsed accepted")
	}
	if _, err := restoreDetector(0.1, 3, PriorAlgorithm1, DetectorSnapshot{Window: []float64{1, 2, 3, 4}}); err == nil {
		t.Error("oversized window accepted")
	}
	if _, err := restoreDetector(0.1, 3, PriorAlgorithm1, DetectorSnapshot{Window: []float64{-5}}); err == nil {
		t.Error("negative window value accepted")
	}
}

// The controller-level invariant: running a trace straight through equals
// running half, snapshotting, restoring, and running the rest.
func TestPulseSnapshotResumesIdentically(t *testing.T) {
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 19, Horizon: 8 * 60})
	if err != nil {
		t.Fatal(err)
	}
	cat := models.PaperCatalog()
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	cfg := Config{Catalog: cat, Assignment: asg}

	drive := func(p *Pulse, from, to int) [][]int {
		var decisions [][]int
		counts := make([]int, len(asg))
		for tt := from; tt < to; tt++ {
			d := p.KeepAlive(tt)
			cp := make([]int, len(d))
			copy(cp, d)
			decisions = append(decisions, cp)
			for fn := range counts {
				counts[fn] = tr.Functions[fn].Counts[tt]
			}
			p.RecordInvocations(tt, counts)
		}
		return decisions
	}

	// Continuous run.
	pFull, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := tr.Horizon / 2
	_ = drive(pFull, 0, half)
	wantTail := drive(pFull, half, tr.Horizon)

	// Snapshot/restore run.
	pFirst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = drive(pFirst, 0, half)
	snap := pFirst.Snapshot()

	// Round-trip the snapshot through JSON as the metastore would.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded PulseSnapshot
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}
	pResumed, err := Restore(cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if pResumed.ResumeMinute() != half {
		t.Errorf("resume minute = %d, want %d", pResumed.ResumeMinute(), half)
	}
	if pResumed.TotalDowngrades() != pFirst.TotalDowngrades() || pResumed.PeakMinutes() != pFirst.PeakMinutes() {
		t.Error("counters lost in snapshot")
	}
	gotTail := drive(pResumed, half, tr.Horizon)

	// In-flight plans are part of the snapshot, so the restored
	// controller's decisions are bit-identical from the first minute.
	for i := range wantTail {
		for fn := range wantTail[i] {
			if gotTail[i][fn] != wantTail[i][fn] {
				t.Fatalf("decisions diverge at minute %d fn %d: %d vs %d",
					half+i, fn, gotTail[i][fn], wantTail[i][fn])
			}
		}
	}
}

func TestRestoreRejectsBadPlans(t *testing.T) {
	cat := models.PaperCatalog()
	cfg := Config{Catalog: cat, Assignment: models.Assignment{0}}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	clone := func() PulseSnapshot {
		c := snap
		c.Functions = append([]FunctionSnapshot(nil), snap.Functions...)
		return c
	}
	bad := clone()
	bad.Functions[0].Plans = []PlanEntry{{Minute: -1, Variant: 0}}
	if _, err := Restore(cfg, bad); err == nil {
		t.Error("negative plan minute accepted")
	}
	bad = clone()
	bad.Functions[0].Plans = []PlanEntry{{Minute: 3, Variant: 99}}
	if _, err := Restore(cfg, bad); err == nil {
		t.Error("invalid plan variant accepted")
	}
	bad = clone()
	bad.Functions = append(bad.Functions, FunctionSnapshot{Name: "ghost", Family: 0})
	if _, err := Restore(cfg, bad); err == nil {
		t.Error("snapshot entry for an unregistered function accepted")
	}
	bad = clone()
	bad.Functions = append(bad.Functions, bad.Functions[0])
	if _, err := Restore(cfg, bad); err == nil {
		t.Error("duplicate snapshot entry accepted")
	}
	bad = clone()
	bad.Functions[0].Family = 1
	if _, err := Restore(cfg, bad); err == nil {
		t.Error("family mismatch accepted")
	}
}

func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	cat := models.PaperCatalog()
	cfg := Config{Catalog: cat, Assignment: models.Assignment{0, 1}}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()

	bad := cfg
	bad.LocalWindow = 120
	if _, err := Restore(bad, snap); err == nil {
		t.Error("local-window mismatch accepted")
	}
	bad = cfg
	bad.Technique = TechniqueT2{}
	if _, err := Restore(bad, snap); err == nil {
		t.Error("technique mismatch accepted")
	}
	bad = cfg
	bad.Assignment = models.Assignment{0}
	if _, err := Restore(bad, snap); err == nil {
		t.Error("function-count mismatch accepted")
	}
	wrongVersion := snap
	wrongVersion.Version = 99
	if _, err := Restore(cfg, wrongVersion); err == nil {
		t.Error("version mismatch accepted")
	}
	negative := snap
	negative.Functions = append([]FunctionSnapshot(nil), snap.Functions...)
	negative.Functions[0].PriorityCount = -1
	if _, err := Restore(cfg, negative); err == nil {
		t.Error("negative priority count accepted")
	}
}

// TestDifferentialShardedSnapshot checks that controller state is portable
// across shard counts: a snapshot taken mid-run on a sharded controller
// restores into a serial one, and both resume with identical decisions.
func TestDifferentialShardedSnapshot(t *testing.T) {
	cat := models.PaperCatalog()
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 11, Horizon: trace.MinutesPerDay, Archetypes: BurstyMix(true)})
	if err != nil {
		t.Fatal(err)
	}
	asg := uniformAssignment(cat, len(tr.Functions))
	a, err := New(Config{Catalog: cat, Assignment: asg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	counts := make([]int, len(asg))
	feed := func(tm int, ps ...*Pulse) {
		for fn := range counts {
			counts[fn] = tr.Functions[fn].Counts[tm]
		}
		for _, p := range ps {
			p.RecordInvocations(tm, counts)
		}
	}
	cut := tr.Horizon / 2
	for tm := 0; tm < cut; tm++ {
		a.KeepAlive(tm)
		feed(tm, a)
	}
	b, err := Restore(Config{Catalog: cat, Assignment: asg, Shards: 1}, a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for tm := cut; tm < tr.Horizon; tm++ {
		da := append([]int(nil), a.KeepAlive(tm)...)
		if db := b.KeepAlive(tm); !reflect.DeepEqual(da, db) {
			t.Fatalf("minute %d: sharded resumes with %v, serial restore with %v", tm, da, db)
		}
		feed(tm, a, b)
	}
	if a.TotalDowngrades() == 0 {
		t.Error("no downgrade after the cut: the resumed runs prove little")
	}
}

// restoreHistory rebuilds a standalone (single-slot-arena) History from a
// snapshot.
func restoreHistory(localWindow int, s HistorySnapshot) (*History, error) {
	h, err := NewHistory(localWindow)
	if err != nil {
		return nil, err
	}
	if err := restoreHistoryInto(h.ar, h.fn, s); err != nil {
		return nil, err
	}
	return h, nil
}
