package provenance

import (
	"math/rand"
	"testing"

	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// BenchmarkObserverMinute times one minute of the barrier-serialized sample
// stream into a Recorder at the shape the scale benchmark steps — the same
// stream internal/telemetry's benchmark of this name feeds: 100 000 slots,
// 12 000 holders (1 000 of them new this minute, 1 000 switching variant) plus
// 1 000 release edges, 1 000 functions re-planned, one rollup. "growing" starts
// the timed minutes with empty rings, so every decision lands in a ring still
// adding blocks; "full" first runs every ring to the window. ns/sample is the
// mean cost of one sample of the minute.
func BenchmarkObserverMinute(b *testing.B) {
	const (
		slots  = 100_000
		cohort = 1_000
		cycle  = slots / cohort
		hold   = 12 // minutes a function holds after its invocation
		change = 6  // of which the first ones at its top variant
	)
	cat := models.PaperCatalog()
	asg := make(models.Assignment, slots)
	for fn := range asg {
		asg[fn] = fn % len(cat.Families)
	}
	// A seeded permutation is invoked a cohort per minute; walk[c] lists, in
	// ascending slot order, the holders and release edges of cycle minute c.
	cohortOf := make([]int32, slots)
	cohorts := make([][]int32, cycle)
	for i, fn := range rand.New(rand.NewSource(1)).Perm(slots) {
		cohortOf[fn] = int32(i / cohort)
		cohorts[i/cohort] = append(cohorts[i/cohort], int32(fn))
	}
	age := func(fn, m int) int { return ((m-int(cohortOf[fn]))%cycle + cycle) % cycle }
	walk := make([][]int32, cycle)
	for c := range walk {
		for fn := 0; fn < slots; fn++ {
			if a := age(fn, c); a >= 1 && a <= hold+1 {
				walk[c] = append(walk[c], int32(fn))
			}
		}
	}
	plan := make([]int, hold)
	probs := []float64{.9, .8, .7, .6, .5, .4, .3, .2, .1, .1, .1, .1}

	for _, bc := range []struct {
		name   string
		warmup int // minutes before the timed ones
	}{{"growing", 0}, {"full", DefaultWindow * cycle / hold}} {
		b.Run(bc.name, func(b *testing.B) {
			rec, err := NewRecorder(RecorderConfig{Catalog: cat, Assignment: asg, Names: identity.DefaultNames(slots)})
			if err != nil {
				b.Fatal(err)
			}
			samples := 0
			minute := func(m int) {
				c := m % cycle
				for _, slot := range walk[c] {
					fn := int(slot)
					fam := &cat.Families[asg[fn]]
					s := telemetry.KeepAliveSample{Minute: m, Function: fn, Variant: -1}
					if a := age(fn, m); a <= hold {
						if a <= change {
							s.Variant = fam.NumVariants() - 1
						} else {
							s.Variant = 0
						}
						s.VariantName, s.MemMB = fam.Variants[s.Variant].Name, fam.Variants[s.Variant].MemoryMB
					}
					rec.ObserveKeepAlive(s)
				}
				for _, slot := range cohorts[c] {
					fn := int(slot)
					top := cat.Families[asg[fn]].NumVariants() - 1
					for i := range plan {
						plan[i] = 0
						if i < change {
							plan[i] = top
						}
					}
					rec.ObserveSchedule(telemetry.ScheduleSample{Minute: m, Function: fn, Plan: plan, Probs: probs})
				}
				rec.ObserveMinute(telemetry.MinuteSample{Minute: m, KeepAliveMB: float64(len(walk[c]))})
				samples += len(walk[c]) + len(cohorts[c]) + 1
			}
			for m := 0; m < bc.warmup; m++ {
				minute(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			samples = 0
			for i := 0; i < b.N; i++ {
				minute(bc.warmup + i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
		})
	}
}
