package policy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
)

func qlearnCatalog(t *testing.T) *models.Catalog {
	t.Helper()
	cat := &models.Catalog{Families: []models.Family{
		{Name: "fam", Task: "test", Variants: []models.Variant{
			{Name: "lo", AccuracyPct: 60, ExecSec: 0.5, ColdStartSec: 2, MemoryMB: 512},
			{Name: "hi", AccuracyPct: 90, ExecSec: 1.0, ColdStartSec: 4, MemoryMB: 2048},
		}},
	}}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// minuteOf drives e through one minute the way the arena's dense walk does:
// the open's KeepAlive, then the barrier's Record.
func minuteOf(e *QLearnEntrant, m, fn, count int) int {
	v := e.KeepAlive(m, fn)
	e.Record(m, fn, count)
	return v
}

// A function invoked every minute teaches the table that dropping is
// expensive, so it is kept warm most minutes; one invoked every two hours
// teaches it that no hold pays for itself, so it is dropped most minutes.
func TestQLearnLearnsToKeepHotAndDropSparse(t *testing.T) {
	cat := qlearnCatalog(t)
	e := NewQLearnEntrant("qlearn", cat, cluster.DefaultCostModel(), QLearnConfig{})
	e.Register(0, 0, 2)
	e.Register(1, 0, 2)

	const minutes = 4000
	warmHot, heldSparse := 0, 0
	for m := 0; m < minutes; m++ {
		if minuteOf(e, m, 0, 3) >= 0 {
			warmHot++
		}
		sparse := 0
		if m%120 == 0 {
			sparse = 1
		}
		if minuteOf(e, m, 1, sparse) >= 0 {
			heldSparse++
		}
	}
	if warmHot < minutes*9/10 {
		t.Errorf("hot function kept warm only %d/%d minutes", warmHot, minutes)
	}
	if heldSparse > minutes/10 {
		t.Errorf("sparse function held %d/%d minutes", heldSparse, minutes)
	}
}

func TestQLearnDeterministicReplay(t *testing.T) {
	cat := qlearnCatalog(t)
	cost := cluster.DefaultCostModel()
	a := NewQLearnEntrant("a", cat, cost, QLearnConfig{})
	b := NewQLearnEntrant("b", cat, cost, QLearnConfig{})
	a.Register(0, 0, 2)
	b.Register(0, 0, 2)
	for m := 0; m < 2000; m++ {
		count := 0
		if m%3 == 0 || m%17 == 5 {
			count = 1 + m%4
		}
		if va, vb := minuteOf(a, m, 0, count), minuteOf(b, m, 0, count); va != vb {
			t.Fatalf("minute %d: decisions diverge (%d vs %d)", m, va, vb)
		}
	}
	if a.q != b.q {
		t.Error("Q-tables diverged on identical traces")
	}
	if a.q == ([qStates][qOptions]float64{}) {
		t.Error("the trace taught the table nothing")
	}
}

// An option holds its variant from the minute after the invoked minute for
// exactly its length, and the next invoked minute settles it with the
// semi-Markov update: the held minutes paid, a cold start charged when the
// invocation found nothing held, the new state's value discounted over the
// elapsed minutes.
func TestQLearnOptionHoldsAndSettles(t *testing.T) {
	cat := qlearnCatalog(t)
	cost := cluster.DefaultCostModel()
	cfg := QLearnConfig{LearnRate: 0.5, Discount: 0.9, ColdCostMinutes: 15} // no exploration
	low := cost.KeepAliveUSDPerMinute(512)
	high := cost.KeepAliveUSDPerMinute(2048)
	for _, c := range []struct {
		name   string
		opt    int8
		invoke int // minute of the second invocation
		v      int // variant the option holds, NoVariant for drop
		held   int // minutes it held before the second invocation
		cold   bool
	}{
		{"keep-high-5, invoked while held", 8, 3, 1, 3, false},
		{"keep-high-5, invoked at its last minute", 8, 5, 1, 5, false},
		{"keep-low-5, invoked after it expired", 3, 9, 0, 5, true},
		{"keep-low-30, invoked while held", 5, 12, 0, 12, false},
		{"drop", optDrop, 4, cluster.NoVariant, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewQLearnEntrant("q", cat, cost, cfg)
			e.Register(0, 0, 2)
			s0 := qState(-1, 1)
			e.q[s0][c.opt] = 1 // greedy in the first invocation's state
			s1 := qState(c.invoke, 2)
			e.q[s1][2] = 0.25 // the new state's best value
			e.Record(0, 0, 1)
			k := 0
			if c.opt > optDrop {
				_, k32 := option(c.opt)
				k = int(k32)
			}
			for m := 1; m <= c.invoke; m++ {
				want := cluster.NoVariant
				if m <= k {
					want = c.v
				}
				count := 0
				if m == c.invoke {
					count = 2
				}
				if got := minuteOf(e, m, 0, count); got != want {
					t.Fatalf("minute %d holds %d, want %d", m, got, want)
				}
			}
			r := -float64(c.held) * map[int]float64{0: low, 1: high, cluster.NoVariant: 0}[c.v]
			if c.cold {
				r -= 15 * high
			}
			want := 1 + 0.5*(r+math.Pow(0.9, float64(c.invoke))*0.25-1)
			if got := e.q[s0][c.opt]; got != want {
				t.Errorf("settled Q = %v, want %v", got, want)
			}
			if e.slots[0].opt != optDue {
				t.Error("the settling invocation did not make the next KeepAlive pick an option")
			}
		})
	}
}

// Record with a zero count changes nothing, and a retired slot starts
// over: it holds nothing, and its next invocation settles no option.
func TestQLearnIdleRecordAndRetire(t *testing.T) {
	cat := qlearnCatalog(t)
	e := NewQLearnEntrant("qlearn", cat, cluster.DefaultCostModel(), QLearnConfig{})
	e.Register(0, 0, 2)
	for m := 0; m < 50; m++ {
		minuteOf(e, m, 0, 5*(m%2))
	}
	before := append([]qSlot(nil), e.slots...)
	q := e.q
	e.Record(50, 0, 0)
	if !reflect.DeepEqual(before, e.slots) || e.q != q {
		t.Error("Record with a zero count changed the entrant")
	}
	e.Retire(0)
	if e.slots[0].last != -1 || e.slots[0].opt != optNone {
		t.Errorf("retired slot not reset: %+v", e.slots[0])
	}
	for m := 51; m < 60; m++ {
		if v := e.KeepAlive(m, 0); v != cluster.NoVariant {
			t.Fatalf("retired slot holds %d at minute %d", v, m)
		}
	}
	e.Record(60, 0, 1)
	if e.q != q {
		t.Error("the first invocation after retirement settled an option")
	}
}

// Long idle stretches leave no subnormal value in the table: nothing is
// updated while a slot is idle, and the settlement after a long gap adds
// the discounted bootstrap to a reward of at least a cold start's price.
func TestQLearnTableHasNoSubnormals(t *testing.T) {
	cat := qlearnCatalog(t)
	e := NewQLearnEntrant("qlearn", cat, cluster.DefaultCostModel(), QLearnConfig{})
	rng := rand.New(rand.NewSource(1))
	const slots = 200
	for fn := 0; fn < slots; fn++ {
		e.Register(fn, 0, 2)
	}
	m := 0
	for ; m < 400; m++ {
		for fn := 0; fn < slots; fn++ {
			c := 0
			if rng.Intn(4) == 0 {
				c = 1 + rng.Intn(12)
			}
			minuteOf(e, m, fn, c)
		}
	}
	for end := m + 20_000; m < end; m++ { // idle: nothing invoked
		for fn := 0; fn < slots; fn++ {
			minuteOf(e, m, fn, 0)
		}
	}
	for fn := 0; fn < slots; fn++ {
		minuteOf(e, m, fn, 1)
	}
	for s := range e.q {
		for a, v := range e.q[s] {
			if v != 0 && math.Abs(v) < 0x1p-1022 {
				t.Errorf("q[%d][%d] = %v is subnormal", s, a, v)
			}
		}
	}
}
