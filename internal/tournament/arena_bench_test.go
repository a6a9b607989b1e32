package tournament_test

import (
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
)

// BenchmarkArenaMinute times one minute boundary of the arena — the close
// of minute m (every entrant's Record per live slot) plus the open of m+1
// (every entrant's KeepAlive per live slot) — at 100 000 slots under the six
// entrants `pulsed -attribution -tournament mpc,hawkes,qlearn` races. Every
// slot has been invoked before the timed minutes, so no entrant is on its
// never-seen fast path; "idle" then feeds no invocations, "invoked1pct" a
// rotating 1 % cohort per minute. ns/slot is the per-slot cost of the whole
// boundary, all six entrants included.
func BenchmarkArenaMinute(b *testing.B) {
	const (
		slots  = 100_000
		warmup = 20 // minutes; each invokes slots/warmup slots, covering all
	)
	cat := models.PaperCatalog()
	asg := make(models.Assignment, slots)
	for fn := range asg {
		asg[fn] = fn % len(cat.Families)
	}
	for _, bc := range []struct {
		name   string
		cohort int
	}{{"idle", 0}, {"invoked1pct", slots / 100}} {
		b.Run(bc.name, func(b *testing.B) {
			extras, err := roster.Build(roster.Names(), cat, cluster.DefaultCostModel())
			if err != nil {
				b.Fatal(err)
			}
			arena, err := tournament.New(tournament.Config{
				Catalog: cat, Assignment: asg,
				Entrants: append([]tournament.ShadowEntrant{
					tournament.NewFixedWindow("fixed-high", cluster.DefaultKeepAliveWindow),
					tournament.NewNever("never"),
					tournament.NewOracle("oracle"),
				}, extras...),
			})
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runMinute(bc.cohort)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/slots, "ns/slot")
		})
	}
}
