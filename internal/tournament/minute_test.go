package tournament_test

// What one arena minute costs, pinned by counting rather than timing: the
// RestingEntrant promises checked on each packaged resting entrant itself,
// the slots a minute boundary visits per entrant, and the allocations of a
// steady-state invoked minute.

import (
	"math/rand"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
)

// Every packaged entrant whose Rests holds keeps the three promises on
// random streams with registrations and retirements: a copy fed every
// minute's Record, zeros included, answers every KeepAlive as a copy fed
// only the positive counts does (Record(m, fn, 0) changes nothing); a slot
// holds NoVariant until its first invoked minute; and a slot that held
// NoVariant in m−1 and was not invoked in m−1 holds NoVariant in m.
func TestRestingPromises(t *testing.T) {
	cat := models.PaperCatalog()
	for _, seed := range []int64{1, 2, 3} {
		all, sparse := productionEntrants(t, cat, false), productionEntrants(t, cat, false)
		checked := 0
		for i, e := range all {
			if r, ok := e.(tournament.RestingEntrant); ok && r.Rests() {
				checkRestingPromises(t, seed, cat, e, sparse[i])
				checked++
			}
		}
		if checked != 5 {
			t.Fatalf("%d resting entrants checked, want 5", checked)
		}
	}
}

// checkRestingPromises drives dense (every Record) and sparse (positive
// Records only) through one random stream, asking both for every live slot
// every minute.
func checkRestingPromises(t *testing.T, seed int64, cat *models.Catalog, dense, sparse tournament.ShadowEntrant) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		live     []int
		invoked  []bool // ever invoked
		prevHeld []int  // variant held in the previous minute, NoVariant when none or not yet asked
		prevCnt  []int  // invocations in the previous minute
	)
	register := func() {
		fn, fam := len(invoked), rng.Intn(len(cat.Families))
		nv := cat.Families[fam].NumVariants()
		dense.Register(fn, fam, nv)
		sparse.Register(fn, fam, nv)
		live = append(live, fn)
		invoked = append(invoked, false)
		prevHeld = append(prevHeld, tournament.NoVariant)
		prevCnt = append(prevCnt, 0)
	}
	for i := 0; i < 80; i++ {
		register()
	}
	for m := 0; m < 600; m++ {
		for _, fn := range live {
			v := dense.KeepAlive(m, fn)
			if sv := sparse.KeepAlive(m, fn); sv != v {
				t.Fatalf("%s seed %d: minute %d slot %d holds %d fed zero counts, %d without them", dense.Name(), seed, m, fn, v, sv)
			}
			if v >= 0 && !invoked[fn] {
				t.Fatalf("%s seed %d: never-invoked slot %d holds %d at minute %d", dense.Name(), seed, fn, v, m)
			}
			if v >= 0 && prevHeld[fn] < 0 && prevCnt[fn] == 0 {
				t.Fatalf("%s seed %d: slot %d let go and was idle, yet holds %d at minute %d", dense.Name(), seed, fn, v, m)
			}
			prevHeld[fn] = v
		}
		if rng.Intn(4) == 0 { // mid-minute registration: its first call is the barrier's Record
			register()
		}
		for _, fn := range live {
			p := 0.03
			if fn%7 == 0 {
				p = 0.5
			}
			n := 0
			if rng.Float64() < p {
				n = 1 + rng.Intn(12)
				invoked[fn] = true
				sparse.Record(m, fn, n)
			}
			dense.Record(m, fn, n)
			prevCnt[fn] = n
		}
		if rng.Intn(6) == 0 && len(live) > 1 {
			i := rng.Intn(len(live))
			dense.Retire(live[i])
			sparse.Retire(live[i])
			live = append(live[:i], live[i+1:]...)
		}
	}
}

// visitCounter counts the calls one boundary's walk makes to an entrant —
// the Records closing minute at−1 and the KeepAlive consults opening minute
// at — and how many of them name a slot the entrant neither held in at−1
// nor saw invoked in at−1.
type visitCounter struct {
	tournament.ShadowEntrant
	at                           int
	heldAt                       []int  // per slot, the last minute KeepAlive answered a variant
	invokedAt                    *[]int // per slot, the last minute the feed invoked it
	keepAlives, records, outside int
}

// restingCounter and hindsightCounter keep the wrapped entrant's Rests and
// HindsightKeepAlive, so the arena walks it as it would unwrapped.
type (
	restingCounter   struct{ *visitCounter }
	hindsightCounter struct {
		restingCounter
		h tournament.HindsightEntrant
	}
)

func (r restingCounter) Rests() bool {
	return r.ShadowEntrant.(tournament.RestingEntrant).Rests()
}

func (h hindsightCounter) HindsightKeepAlive(m, fn int) int { return h.h.HindsightKeepAlive(m, fn) }

func (c *visitCounter) Register(fn, fam, nv int) {
	c.heldAt = append(c.heldAt, -1)
	c.ShadowEntrant.Register(fn, fam, nv)
}

func (c *visitCounter) visit(fn int) {
	if c.heldAt[fn] != c.at-1 && (*c.invokedAt)[fn] != c.at-1 {
		c.outside++
	}
}

func (c *visitCounter) KeepAlive(m, fn int) int {
	if m == c.at {
		c.keepAlives++
		c.visit(fn)
	}
	v := c.ShadowEntrant.KeepAlive(m, fn)
	if v >= 0 {
		c.heldAt[fn] = m
	}
	return v
}

func (c *visitCounter) Record(m, fn, count int) {
	if m == c.at-1 {
		c.records++
		c.visit(fn)
	}
	c.ShadowEntrant.Record(m, fn, count)
}

// The walk visits only what moves: at 10 000 slots, over one idle and one
// 1 %-invoked minute boundary, MPC is the one entrant asked about every
// live slot, and every resting entrant — the Q-learner included — is asked
// only about the slots it held or saw invoked in the closing minute, and
// told only the invoked ones' counts.
func TestArenaMinuteVisits(t *testing.T) {
	const slots = 10_000
	cat := models.PaperCatalog()
	asg := make(models.Assignment, slots)
	invokedAt := make([]int, slots)
	for fn := range asg {
		asg[fn] = fn % len(cat.Families)
		invokedAt[fn] = -1
	}
	var counters []*visitCounter
	var ents []tournament.ShadowEntrant
	for _, e := range productionEntrants(t, cat, false) {
		c := &visitCounter{ShadowEntrant: e, at: -1, invokedAt: &invokedAt}
		counters = append(counters, c)
		switch e := e.(type) {
		case tournament.HindsightEntrant:
			ents = append(ents, hindsightCounter{restingCounter{c}, e})
		case tournament.RestingEntrant:
			ents = append(ents, restingCounter{c})
		default:
			ents = append(ents, c)
		}
	}
	a, err := tournament.New(tournament.Config{Catalog: cat, Assignment: asg, Entrants: ents})
	if err != nil {
		t.Fatal(err)
	}
	minute, next := 0, 0
	// step closes the open minute after invoking cohort slots in it, and
	// opens the next.
	step := func(cohort int) {
		for i := 0; i < cohort; i++ {
			fn := next % slots
			next++
			invokedAt[fn] = minute
			a.ObserveInvocation(telemetry.InvocationSample{
				Minute: minute, Function: fn, Variant: cat.Families[asg[fn]].Variants[0].Name, Count: 1 + fn%5,
			})
		}
		minute++
		a.ObserveMinute(telemetry.MinuteSample{Minute: minute})
	}
	a.ObserveMinute(telemetry.MinuteSample{Minute: 0})
	for minute < 20 {
		step(slots / 20) // every slot invoked once
	}
	for _, bc := range []struct {
		name   string
		cohort int
	}{{"idle", 0}, {"invoked1pct", slots / 100}} {
		for _, c := range counters {
			c.at, c.keepAlives, c.records, c.outside = minute+1, 0, 0, 0
		}
		step(bc.cohort)
		for _, c := range counters {
			name := c.Name()
			if name == "mpc" {
				if c.keepAlives != slots || c.records != slots {
					t.Errorf("%s: mpc asked about %d slots and told %d counts, want %d each", bc.name, c.keepAlives, c.records, slots)
				}
				continue
			}
			if c.outside != 0 || c.records != bc.cohort || c.keepAlives >= slots {
				t.Errorf("%s: %s made %d KeepAlive and %d Record calls, %d of them outside its held and invoked slots; want %d Records, none outside",
					bc.name, name, c.keepAlives, c.records, c.outside, bc.cohort)
			}
		}
	}
	if c := counters[5]; c.Name() != "qlearn" || c.keepAlives < slots/100 {
		t.Errorf("%s made %d KeepAlive calls in the invoked minute; it never saw its invoked slots", c.Name(), c.keepAlives)
	}
}

// A steady-state minute with a rotating 1 % cohort invoked allocates
// nothing under the six entrants pulsed races: the held lists, the invoked
// list and every entrant's per-slot state reach their size while warming.
func TestTournamentInvokedMinuteNoSteadyStateAllocs(t *testing.T) {
	const slots = 4_000
	cat := models.PaperCatalog()
	asg := make(models.Assignment, slots)
	for fn := range asg {
		asg[fn] = fn % len(cat.Families)
	}
	a, err := tournament.New(tournament.Config{Catalog: cat, Assignment: asg, SeriesWindow: 128, Entrants: productionEntrants(t, cat, false)})
	if err != nil {
		t.Fatal(err)
	}
	minute, next := 0, 0
	step := func() {
		for i := 0; i < slots/100; i++ {
			fn := next % slots
			next++
			a.ObserveInvocation(telemetry.InvocationSample{
				Minute: minute, Function: fn, Variant: cat.Families[asg[fn]].Variants[0].Name, Count: 1 + fn%3,
			})
		}
		a.ObserveMinute(telemetry.MinuteSample{Minute: minute})
		minute++
	}
	for i := 0; i < 300; i++ { // three rotations: every slot invoked three times
		step()
	}
	if avg := testing.AllocsPerRun(300, step); avg != 0 {
		t.Errorf("steady-state 1 %%-invoked minute allocates %v times, want 0", avg)
	}
}
