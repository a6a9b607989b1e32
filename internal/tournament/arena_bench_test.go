package tournament_test

import (
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
)

// BenchmarkArenaMinute times one minute boundary of the arena — the close
// of minute m (Record) plus the open of m+1 (KeepAlive) — at 100 000 slots,
// under the six entrants `pulsed -attribution -tournament mpc,hawkes,qlearn`
// races ("all") and under each of them alone. Every slot has been invoked
// before the timed minutes, so no entrant is on its never-seen path; "idle"
// then feeds no invocations, "invoked1pct" a rotating 1 % cohort per minute.
// Before timing, the minute pattern itself runs long enough for every hold
// left by that warm-up to expire (fixed-high's 10-minute window, the Hawkes
// tail of one invocation, about 9 minutes, the Q-learner's longest option,
// 30 minutes from the minute after the last warm-up invocation), so the
// resting entrants' held lists are in their steady state whatever
// -benchtime is. ns/slot is the
// per-slot cost of the whole boundary.
func BenchmarkArenaMinute(b *testing.B) {
	const (
		slots  = 100_000
		warmup = 20 // minutes; each invokes slots/warmup slots, covering all
		settle = 30 // minutes of the timed pattern, past the longest hold
	)
	cat := models.PaperCatalog()
	asg := make(models.Assignment, slots)
	for fn := range asg {
		asg[fn] = fn % len(cat.Families)
	}
	sets := []string{"all"}
	for _, e := range productionEntrants(b, cat, false) {
		sets = append(sets, e.Name())
	}
	for _, bc := range []struct {
		name   string
		cohort int
	}{{"idle", 0}, {"invoked1pct", slots / 100}} {
		for si, set := range sets {
			b.Run(bc.name+"/"+set, func(b *testing.B) {
				ents := productionEntrants(b, cat, false)
				if si > 0 {
					ents = ents[si-1 : si]
				}
				arena, err := tournament.New(tournament.Config{Catalog: cat, Assignment: asg, Entrants: ents})
				if err != nil {
					b.Fatal(err)
				}
				minute, next := 0, 0
				runMinute := func(cohort int) {
					for i := 0; i < cohort; i++ {
						fn := next % slots
						next++
						arena.ObserveInvocation(telemetry.InvocationSample{
							Minute: minute, Function: fn,
							Variant: cat.Families[asg[fn]].Variants[0].Name, Count: 1,
						})
					}
					arena.ObserveMinute(telemetry.MinuteSample{Minute: minute})
					minute++
				}
				for minute < warmup {
					runMinute(slots / warmup)
				}
				for minute < warmup+settle {
					runMinute(bc.cohort)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runMinute(bc.cohort)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/slots, "ns/slot")
			})
		}
	}
}
