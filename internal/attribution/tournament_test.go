package attribution

// Tournament-facing behavior of the Accountant: extra entrants ride the
// same arena without perturbing the classic three-baseline report, their
// ledgers fold at retirement like the shared ones, and a fully loaded
// arena (three baselines plus the whole packaged roster — six entrants)
// still observes an idle steady-state minute without allocating.

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
)

// rosterEntrants builds the full packaged roster for the test catalog.
func rosterEntrants(t *testing.T, cat *models.Catalog) []tournament.ShadowEntrant {
	t.Helper()
	ents, err := roster.Build(roster.Names(), cat, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return ents
}

// feedSyntheticStream drives a deterministic mixed workload — keep-alive
// decisions, batched invocations, downgrades, and a mid-run deregister —
// through the accountant.
func feedSyntheticStream(acct *Accountant, cat *models.Catalog, asg models.Assignment, minutes int) {
	for m := 0; m < minutes; m++ {
		for fn := range asg {
			fam := cat.Families[asg[fn]]
			if (fn+m)%4 != 3 {
				acct.ObserveKeepAlive(telemetry.KeepAliveSample{
					Minute: m, Function: fn, Variant: (fn + m) % len(fam.Variants),
				})
			}
			if (fn+m)%3 != 0 {
				acct.ObserveInvocation(telemetry.InvocationSample{
					Minute: m, Function: fn,
					Variant: fam.Variants[m%len(fam.Variants)].Name,
					Cold:    (fn+m)%5 == 0, Count: 1 + (fn+m)%3,
				})
			}
		}
		if m%7 == 0 {
			acct.ObserveDowngrade(telemetry.DowngradeSample{Minute: m, Function: m % len(asg)})
		}
		if m == minutes/2 {
			acct.ObserveDeregister(telemetry.DeregisterSample{Minute: m, Function: 1})
		}
		acct.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
}

// Adding entrants must not change a single bit of the classic
// three-baseline report or any classic metric series: the baselines keep
// their own ledgers and accumulators, and the accounting order within
// each entrant is independent of how many entrants follow it.
func TestTournamentExtrasDoNotPerturbClassicReport(t *testing.T) {
	cat := testCatalog(t)
	asg := uniform(cat, 5)
	plain := newAccountant(t, Config{Catalog: cat, Assignment: asg})
	loaded := newAccountant(t, Config{Catalog: cat, Assignment: asg, Entrants: rosterEntrants(t, cat)})

	const minutes = 90
	feedSyntheticStream(plain, cat, asg, minutes)
	feedSyntheticStream(loaded, cat, asg, minutes)

	if p, l := plain.Report(), loaded.Report(); !reflect.DeepEqual(p, l) {
		t.Errorf("extra entrants perturbed the classic report:\nplain  %+v\nloaded %+v", p, l)
	}
	for m := Metric(0); m < numMetrics; m++ {
		p := plain.Series(m, minutes, false)
		l := loaded.Series(m, minutes, false)
		if !reflect.DeepEqual(p, l) {
			t.Errorf("metric %v series diverged with extras attached", m)
		}
		ph := plain.Series(m, 4, true)
		lh := loaded.Series(m, 4, true)
		if !reflect.DeepEqual(ph, lh) {
			t.Errorf("metric %v hourly series diverged with extras attached", m)
		}
		pv, pok := plain.MetricAt(m, minutes-1)
		lv, lok := loaded.MetricAt(m, minutes-1)
		if pok != lok || pv != lv {
			t.Errorf("metric %v open-minute value diverged: %v/%v vs %v/%v", m, pv, pok, lv, lok)
		}
	}

	names := loaded.EntrantNames()
	want := append([]string{BaselineFixedHigh, BaselineNever, BaselineOracle}, roster.Names()...)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("entrant order = %v, want %v", names, want)
	}
	// Every extra entrant has a live savings series once minutes closed.
	for i := 3; i < len(names); i++ {
		sel := tournament.Selector{Entrant: i, Channel: tournament.ChanSavingsUSD}
		if pts := loaded.Arena().Series(sel, minutes, false); len(pts) == 0 {
			t.Errorf("entrant %s: no savings series", names[i])
		}
	}
}

// Retiring a slot closes every entrant's ledger for it — not just the
// shared one — where it stands: the priced ledger is the same at retirement
// and fifty minutes later, while the live slots' ledgers keep moving.
func TestTournamentEntrantLedgerFoldAtRetire(t *testing.T) {
	cat := testCatalog(t)
	asg := uniform(cat, 4)
	acct := newAccountant(t, Config{Catalog: cat, Assignment: asg, Entrants: rosterEntrants(t, cat)})

	minute := func(m int) {
		for fn := range asg {
			fam := cat.Families[asg[fn]]
			acct.ObserveInvocation(telemetry.InvocationSample{
				Minute: m, Function: fn,
				Variant: fam.Variants[(fn+m)%len(fam.Variants)].Name,
				Cold:    m == 0, Count: 1 + fn,
			})
		}
		acct.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
	for m := 0; m < 20; m++ {
		minute(m)
	}

	before := acct.Arena().Snapshot()
	acct.ObserveDeregister(telemetry.DeregisterSample{Minute: 19, Function: 2})
	after := acct.Arena().Snapshot()
	if !reflect.DeepEqual(before.Functions[2], after.Functions[2]) {
		t.Errorf("retiring changed the function's ledger:\nbefore %+v\nafter  %+v",
			before.Functions[2], after.Functions[2])
	}
	if !reflect.DeepEqual(before.Total, after.Total) {
		t.Error("retiring changed the total ledger")
	}
	for m := 20; m < 70; m++ {
		minute(m)
	}
	later := acct.Arena().Snapshot()
	if !reflect.DeepEqual(after.Functions[2], later.Functions[2]) {
		t.Errorf("the retired function's ledger moved in the 50 minutes after retirement:\nat retirement %+v\n50 min later  %+v",
			after.Functions[2], later.Functions[2])
	}
	if reflect.DeepEqual(after.Functions[0], later.Functions[0]) {
		t.Error("a live function's ledger did not move either; the minutes above fed nothing")
	}
}

// Entrant name collisions with the baselines (or each other) are
// configuration errors, not silent shadowing.
func TestTournamentRejectsDuplicateEntrantNames(t *testing.T) {
	cat := testCatalog(t)
	asg := uniform(cat, 2)
	if _, err := New(Config{Catalog: cat, Assignment: asg, Entrants: []tournament.ShadowEntrant{
		tournament.NewNever(BaselineNever),
	}}); err == nil {
		t.Error("entrant shadowing a baseline name was accepted")
	}
	if _, err := New(Config{Catalog: cat, Assignment: asg, Entrants: []tournament.ShadowEntrant{
		tournament.NewFixedWindow("twin", 5),
		tournament.NewFixedWindow("twin", 9),
	}}); err == nil {
		t.Error("duplicate entrant names were accepted")
	}
}

// With the whole roster attached — six entrants — a steady-state minute
// (keep-alives, a batched and a cold invocation, the barrier) must not
// allocate: the hot path is integer counters plus preallocated rows, and
// every packaged entrant's KeepAlive/Record is allocation-free. The same
// holds while holders turn over (the resting entrants' held lists are
// double-buffered) and for the minute right after a deregister: the arena
// drops the retired slot from its live-slot list in place. All of it holds
// whether the arena walks the entrants on the calling goroutine or on one
// goroutine each.
func TestTournamentIdleMinuteSixEntrantsNoSteadyStateAllocs(t *testing.T) {
	for _, walkers := range []int{1, 6} {
		t.Run(fmt.Sprintf("walkers=%d", walkers), func(t *testing.T) {
			cat := testCatalog(t)
			const churnRuns = 30
			asg := models.Assignment{0, 1, 0, 1}
			for i := 0; i <= churnRuns; i++ { // slots 4.. exist to be deregistered below
				asg = append(asg, i%2)
			}
			a := newAccountantWalkers(t, walkers, Config{
				Catalog: cat, Assignment: asg, SeriesWindow: 128,
				Entrants: rosterEntrants(t, cat),
			})
			if got := len(a.EntrantNames()); got != 6 {
				t.Fatalf("expected 6 entrants, got %d", got)
			}

			minute := 0
			observeMinute := func() {
				for fn := range asg {
					a.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: minute, Function: fn, Variant: 0, MemMB: 512})
				}
				a.ObserveMinute(telemetry.MinuteSample{Minute: minute})
				a.ObserveInvocation(telemetry.InvocationSample{Minute: minute, Function: 0, Variant: "alpha-lo", Count: 2, AccuracyPct: 60})
				a.ObserveInvocation(telemetry.InvocationSample{Minute: minute, Function: 1, Variant: "beta-lo", Cold: true, Count: 1, AccuracyPct: 70})
				minute++
			}
			for i := 0; i < 30; i++ { // warm up past the first hour-bucket writes
				observeMinute()
			}
			if avg := allocsPerRun(200, observeMinute); avg != 0 {
				t.Errorf("steady-state minute with 6 entrants allocates %v times, want 0", avg)
			}

			// A rotating cohort: two slots invoked per minute, each slot every 16
			// minutes, so the resting entrants' held lists (fixed-high's 10-minute
			// window, hawkes' decay tail) gain and lose members every minute.
			const rotate = 32
			cohortMinute := func() {
				for k := 0; k < 2; k++ {
					fn := (2*minute + k) % rotate
					a.ObserveInvocation(telemetry.InvocationSample{Minute: minute, Function: fn, Variant: cat.Families[asg[fn]].Variants[0].Name, Count: 2})
				}
				a.ObserveMinute(telemetry.MinuteSample{Minute: minute})
				minute++
			}
			for i := 0; i < 4*rotate; i++ {
				cohortMinute()
			}
			if avg := allocsPerRun(200, cohortMinute); avg != 0 {
				t.Errorf("rotating-cohort minute with 6 entrants allocates %v times, want 0", avg)
			}

			victim := len(asg)
			deregisterThenMinute := func() {
				victim--
				a.ObserveDeregister(telemetry.DeregisterSample{Minute: minute - 1, Function: victim})
				observeMinute()
			}
			if avg := allocsPerRun(churnRuns, deregisterThenMinute); avg != 0 {
				t.Errorf("minute after a deregister allocates %v times, want 0", avg)
			}
			// observeMinute sends a keep-alive sample to every slot, the
			// retired ones included: only the live ones may count it.
			held := func(fn int) float64 {
				return a.Arena().Snapshot().Functions[fn].Actual.KeepAliveMBMinutes
			}
			victimHeld, liveHeld := held(victim), held(3)
			observeMinute()
			if held(victim) != victimHeld || held(3) == liveHeld {
				t.Error("the deregisters above did not retire the slots they named")
			}
		})
	}
}
