package tournament_test

// Arena differentials on one randomized churn stream. Dense-vs-resting: the
// six production entrants raced twice — once as they are (all but mpc
// rest), once each wrapped so the arena cannot see Rests and
// walks every live slot — must give bit-identical ledgers and series.

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
)

// denseOnly hides every method but ShadowEntrant's; denseHindsight keeps
// HindsightKeepAlive too.
type (
	denseOnly      struct{ tournament.ShadowEntrant }
	denseHindsight struct{ tournament.HindsightEntrant }
)

// productionEntrants builds the six entrants `pulsed -attribution
// -tournament mpc,hawkes,qlearn` races, optionally with Rests hidden.
func productionEntrants(t testing.TB, cat *models.Catalog, hideRests bool) []tournament.ShadowEntrant {
	t.Helper()
	extras, err := roster.Build(roster.Names(), cat, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	ents := append([]tournament.ShadowEntrant{
		tournament.NewFixedWindow("fixed-high", cluster.DefaultKeepAliveWindow),
		tournament.NewNever("never"),
		tournament.NewOracle("oracle"),
	}, extras...)
	if hideRests {
		for i, e := range ents {
			if h, ok := e.(tournament.HindsightEntrant); ok {
				ents[i] = denseHindsight{h}
			} else {
				ents[i] = denseOnly{e}
			}
		}
	}
	return ents
}

// feedChurn drives one randomized stream into every arena: invocations
// fragmented into several samples, live keep-alive samples, downgrades,
// registers and retires in mid-minute, stale-minute samples and
// multi-minute gaps.
func feedChurn(seed int64, cat *models.Catalog, initial, minutes int, arenas ...*tournament.Arena) {
	rng := rand.New(rand.NewSource(seed))
	fam := make([]int, initial)
	live := make([]int, initial)
	for fn := range fam {
		fam[fn] = fn % len(cat.Families)
		live[fn] = fn
	}
	each := func(f func(a *tournament.Arena)) {
		for _, a := range arenas {
			f(a)
		}
	}
	m := 0
	for end := minutes; m < end; {
		// A bursty population: a hot tenth invoked most minutes, the rest
		// rarely, so held sets keep turning over.
		for _, fn := range live {
			p := 0.02
			if fn%10 == 0 {
				p = 0.6
			}
			if rng.Float64() >= p {
				continue
			}
			variants := cat.Families[fam[fn]].Variants
			for frag := 1 + rng.Intn(3); frag > 0; frag-- {
				s := telemetry.InvocationSample{
					Minute: m, Function: fn, Count: 1 + rng.Intn(4),
					Variant: variants[rng.Intn(len(variants))].Name,
					Cold:    rng.Intn(4) == 0,
				}
				if m > 0 && rng.Intn(20) == 0 {
					s.Minute = m - 1 // stale: folded into the open minute
				}
				each(func(a *tournament.Arena) { a.ObserveInvocation(s) })
			}
			if rng.Intn(3) == 0 {
				s := telemetry.KeepAliveSample{Minute: m, Function: fn, Variant: rng.Intn(len(variants))}
				each(func(a *tournament.Arena) { a.ObserveKeepAlive(s) })
			}
			if rng.Intn(50) == 0 {
				s := telemetry.DowngradeSample{Minute: m, Function: fn}
				each(func(a *tournament.Arena) { a.ObserveDowngrade(s) })
			}
		}
		switch r := rng.Intn(10); {
		case r < 3: // mid-minute register, sometimes invoked at once
			fn := len(fam)
			fam = append(fam, rng.Intn(len(cat.Families)))
			live = append(live, fn)
			s := telemetry.RegisterSample{Minute: m, Function: fn, Family: fam[fn]}
			each(func(a *tournament.Arena) { a.ObserveRegister(s) })
			if rng.Intn(2) == 0 {
				inv := telemetry.InvocationSample{Minute: m, Function: fn, Count: 2, Variant: cat.Families[fam[fn]].Variants[0].Name}
				each(func(a *tournament.Arena) { a.ObserveInvocation(inv) })
			}
		case r < 5 && len(live) > 1: // mid-minute or rolling retire
			i := rng.Intn(len(live))
			s := telemetry.DeregisterSample{Minute: m + rng.Intn(2), Function: live[i]}
			live = append(live[:i], live[i+1:]...)
			each(func(a *tournament.Arena) { a.ObserveDeregister(s) })
		}
		if rng.Intn(8) == 0 {
			m += 2 + rng.Intn(15) // gap: the next sample rolls every minute between
		} else {
			s := telemetry.MinuteSample{Minute: m}
			each(func(a *tournament.Arena) { a.ObserveMinute(s) })
			m++
		}
	}
	s := telemetry.MinuteSample{Minute: m}
	each(func(a *tournament.Arena) { a.ObserveMinute(s) })
}

func TestDifferentialRestingVsDense(t *testing.T) {
	cat := models.PaperCatalog()
	asg := churnAssignment(cat)
	for _, seed := range []int64{1, 2, 3} {
		var arenas [2]*tournament.Arena
		for i, hide := range []bool{false, true} {
			ents := productionEntrants(t, cat, hide)
			resting := 0
			for _, e := range ents {
				if r, ok := e.(tournament.RestingEntrant); ok && r.Rests() {
					resting++
				}
			}
			if want := map[bool]int{false: 5, true: 0}[hide]; resting != want {
				t.Fatalf("hideRests=%v: %d resting entrants, want %d", hide, resting, want)
			}
			a, err := tournament.New(tournament.Config{Catalog: cat, Assignment: asg, SeriesWindow: 128, Entrants: ents})
			if err != nil {
				t.Fatal(err)
			}
			arenas[i] = a
		}
		feedChurn(seed, cat, len(asg), 400, arenas[:]...)
		compareArenas(t, seed, "resting", arenas[0], "dense", arenas[1])
	}
}

// Parallel-vs-serial differential: the six production entrants raced on the
// churn stream in one arena, whose boundary walks overlap on the fork-join
// helpers, and each alone in an arena of its own, whose one-task walks run
// on the feeding goroutine, must give every entrant bit-identical ledgers
// and series, under the race detector too. The parallel arena carries a
// seventh entrant, a probe that counts the boundaries a helper walked it.
func TestDifferentialArenaParallelVsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 7)))
	cat := models.PaperCatalog()
	asg := churnAssignment(cat)
	for _, seed := range []int64{1, 2, 3} {
		probe := &helperProbe{last: -1}
		parallel, err := tournament.New(tournament.Config{Catalog: cat, Assignment: asg, SeriesWindow: 128,
			Entrants: append(productionEntrants(t, cat, false), probe)})
		if err != nil {
			t.Fatal(err)
		}
		serial := make([]*tournament.Arena, 6)
		for k := range serial {
			ent := productionEntrants(t, cat, false)[k]
			if serial[k], err = tournament.New(tournament.Config{Catalog: cat, Assignment: asg, SeriesWindow: 128,
				Entrants: []tournament.ShadowEntrant{ent}}); err != nil {
				t.Fatal(err)
			}
		}
		feedChurn(seed, cat, len(asg), 400, append(serial, parallel)...)
		if probe.helped == 0 {
			t.Errorf("seed %d: no fork-join helper walked the probe in 400 minutes", seed)
		}
		ps := parallel.Snapshot()
		for k, a := range serial {
			only := ps
			only.Entrants = ps.Entrants[k : k+1]
			only.Functions = make([]tournament.FunctionLedger, len(ps.Functions))
			for fn, l := range ps.Functions {
				only.Functions[fn] = entrantColumn(l, k)
			}
			only.Total = entrantColumn(ps.Total, k)
			if as := a.Snapshot(); !reflect.DeepEqual(as, only) {
				t.Errorf("seed %d: %s's snapshots diverge\nserial   %+v\nparallel %+v", seed, as.Entrants[0], as.Total, only.Total)
			}
			for _, c := range []tournament.Channel{tournament.ChanKaMMB, tournament.ChanCostUSD, tournament.ChanCold, tournament.ChanSavingsUSD} {
				compareSeries(t, seed, "serial", a, tournament.Selector{Entrant: 0, Channel: c}, "parallel", parallel, tournament.Selector{Entrant: k, Channel: c})
			}
		}
		for _, sel := range sharedSelectors {
			compareSeries(t, seed, "serial", serial[0], sel, "parallel", parallel, sel)
		}
	}
}

// entrantColumn is l with only entrant k's shadow tally and savings.
func entrantColumn(l tournament.FunctionLedger, k int) tournament.FunctionLedger {
	l.Shadows, l.Savings = l.Shadows[k:k+1], l.Savings[k:k+1]
	return l
}

// helperProbe is an entrant that holds nothing and counts the boundaries
// whose walk of it ran on a fork-join helper.
type helperProbe struct {
	last   int // minute of the last boundary seen
	helped int
}

func (p *helperProbe) Name() string         { return "probe" }
func (p *helperProbe) Register(_, _, _ int) {}
func (p *helperProbe) Retire(int)           {}
func (p *helperProbe) Record(_, _, _ int)   {}
func (p *helperProbe) KeepAlive(m, _ int) int {
	if m != p.last {
		p.last = m
		if onHelper() {
			p.helped++
		}
	}
	return tournament.NoVariant
}

// churnAssignment is the initial population feedChurn starts from.
func churnAssignment(cat *models.Catalog) models.Assignment {
	asg := make(models.Assignment, 120)
	for fn := range asg {
		asg[fn] = fn % len(cat.Families)
	}
	return asg
}

// compareArenas requires two arenas fed one churn stream to agree exactly:
// deep-equal snapshots and bit-identical points in every minute and hourly
// series, shared and per entrant.
func compareArenas(t *testing.T, seed int64, na string, a *tournament.Arena, nb string, b *tournament.Arena) {
	t.Helper()
	as, bs := a.Snapshot(), b.Snapshot()
	if !reflect.DeepEqual(as, bs) {
		t.Errorf("seed %d: snapshots diverge\n%-8s %+v\n%-8s %+v", seed, na, as.Total, nb, bs.Total)
	}
	for _, ei := range []int{0, 4, 5} { // fixed-high, hawkes, qlearn
		if as.Total.Shadows[ei].KeepAliveMBMinutes == 0 {
			t.Errorf("seed %d: %s never held a slot; the stream does not exercise its held list", seed, as.Entrants[ei])
		}
	}
	sels := append([]tournament.Selector(nil), sharedSelectors...)
	for ei := range as.Entrants {
		for _, c := range []tournament.Channel{tournament.ChanKaMMB, tournament.ChanCostUSD, tournament.ChanCold, tournament.ChanSavingsUSD} {
			sels = append(sels, tournament.Selector{Entrant: ei, Channel: c})
		}
	}
	for _, sel := range sels {
		compareSeries(t, seed, na, a, sel, nb, b, sel)
	}
}

// sharedSelectors selects the live account's series.
var sharedSelectors = []tournament.Selector{
	tournament.Shared(tournament.ChanKaMMB), tournament.Shared(tournament.ChanCostUSD),
	tournament.Shared(tournament.ChanCold), tournament.Shared(tournament.ChanInvocations),
}

// compareSeries requires a's series asel and b's series bsel to hold
// bit-identical points, minute by minute and hour by hour.
func compareSeries(t *testing.T, seed int64, na string, a *tournament.Arena, asel tournament.Selector, nb string, b *tournament.Arena, bsel tournament.Selector) {
	t.Helper()
	for _, hourly := range []bool{false, true} {
		ap, bp := a.Series(asel, 1<<20, hourly), b.Series(bsel, 1<<20, hourly)
		if len(ap) == 0 || len(ap) != len(bp) {
			t.Fatalf("seed %d %+v hourly=%v: %d %s points, %d %s", seed, asel, hourly, len(ap), na, len(bp), nb)
		}
		for i := range ap {
			if ap[i].Minute != bp[i].Minute || math.Float64bits(ap[i].Value) != math.Float64bits(bp[i].Value) {
				t.Errorf("seed %d %+v hourly=%v point %d: %s %+v, %s %+v", seed, asel, hourly, i, na, ap[i], nb, bp[i])
				break
			}
		}
	}
}
