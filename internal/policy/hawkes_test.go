package policy

import (
	"math/rand"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
)

func TestHawkesExcitesAndDecays(t *testing.T) {
	h := NewHawkesEntrant("hawkes", HawkesConfig{})
	h.Register(0, 0, 3)

	// Quiet function: baseline intensity alone never justifies keep-alive.
	if v := h.KeepAlive(0, 0); v != cluster.NoVariant {
		t.Fatalf("cold start state keeps variant %d, want none", v)
	}

	// A burst excites the process: the next minutes are held warm on the
	// highest variant.
	h.Record(10, 0, 8)
	if v := h.KeepAlive(11, 0); v != 2 {
		t.Fatalf("post-burst keep-alive = %d, want highest (2)", v)
	}

	// The excitation decays: far enough out, the entrant lets go.
	held := 0
	for m := 11; m < 120; m++ {
		if h.KeepAlive(m, 0) == 2 {
			held++
		} else {
			break
		}
	}
	if held == 0 || held > 60 {
		t.Errorf("burst held warm for %d minutes, want a finite adaptive window", held)
	}

	// A bigger burst holds longer than a smaller one.
	small := NewHawkesEntrant("s", HawkesConfig{})
	big := NewHawkesEntrant("b", HawkesConfig{})
	small.Register(0, 0, 2)
	big.Register(0, 0, 2)
	small.Record(0, 0, 2)
	big.Record(0, 0, 40)
	holdLen := func(h *HawkesEntrant) int {
		n := 0
		for m := 1; m < 240 && h.KeepAlive(m, 0) >= 0; m++ {
			n++
		}
		return n
	}
	if hs, hb := holdLen(small), holdLen(big); hb <= hs {
		t.Errorf("self-excitation not monotone in burst size: small %d, big %d", hs, hb)
	}
}

func TestHawkesRetireResets(t *testing.T) {
	h := NewHawkesEntrant("hawkes", HawkesConfig{})
	h.Register(0, 0, 2)
	h.Record(5, 0, 50)
	if h.KeepAlive(6, 0) < 0 {
		t.Fatal("burst did not excite")
	}
	h.Retire(0)
	if v := h.KeepAlive(6, 0); v != cluster.NoVariant {
		t.Errorf("retired slot still warm: %d", v)
	}
}

func TestHawkesDeterministicReplay(t *testing.T) {
	a := NewHawkesEntrant("a", HawkesConfig{})
	b := NewHawkesEntrant("b", HawkesConfig{})
	a.Register(0, 0, 3)
	b.Register(0, 0, 3)
	counts := []int{0, 3, 0, 0, 7, 1, 0, 0, 0, 2}
	for m, c := range counts {
		if va, vb := a.KeepAlive(m, 0), b.KeepAlive(m, 0); va != vb {
			t.Fatalf("minute %d: decisions diverge (%d vs %d)", m, va, vb)
		}
		a.Record(m, 0, c)
		b.Record(m, 0, c)
	}
}

// The tournament.RestingEntrant promises, checked over random configs with
// Rests() true and random excitation histories: Record(m, fn, 0) changes
// nothing, a never-invoked slot holds nothing, and a slot that let go at
// m−1 with no invocation in m−1 still holds nothing at m.
func TestHawkesRestingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	configs, held := 0, 0
	for configs < 300 {
		cfg := HawkesConfig{
			Mu: uniform(0, 0.6), Alpha: uniform(0, 2), Beta: uniform(0, 1),
			ColdCostMinutes: uniform(1, 40),
		}
		switch rng.Intn(6) {
		case 0:
			cfg.Alpha = -cfg.Alpha
		case 1:
			cfg.ColdCostMinutes = -cfg.ColdCostMinutes
		case 2:
			cfg.Beta = 0
		case 3:
			cfg.Mu = -cfg.Mu
		}
		h := NewHawkesEntrant("h", cfg)
		if !h.Rests() {
			continue
		}
		configs++
		h.Register(0, 0, 3)
		first := 5 + rng.Intn(20)
		prevNone, prevInvoked := true, false
		for m := 0; m < 200; m++ {
			v := h.KeepAlive(m, 0)
			if m <= first && v != cluster.NoVariant {
				t.Fatalf("%+v: never-invoked slot holds %d at minute %d", cfg, v, m)
			}
			if prevNone && !prevInvoked && v != cluster.NoVariant {
				t.Fatalf("%+v: slot let go at minute %d without an invocation, holds %d at %d", cfg, m-1, v, m)
			}
			if v != cluster.NoVariant {
				held++
			}
			count := 0
			if m == first || (m > first && rng.Intn(8) == 0) {
				count = 1 + rng.Intn(20)
			}
			x, t0 := h.x[0], h.t0[0]
			h.Record(m, 0, count)
			if count == 0 && (h.x[0] != x || h.t0[0] != t0) {
				t.Fatalf("%+v: Record(%d, 0, 0) changed the state", cfg, m)
			}
			prevNone, prevInvoked = v == cluster.NoVariant, count > 0
		}
	}
	if held == 0 {
		t.Fatal("no generated history ever held a slot; the property is vacuous")
	}

	if h := NewHawkesEntrant("mu", HawkesConfig{Mu: 2, Alpha: 0.4, Beta: 0.2, ColdCostMinutes: 15}); !h.restHold || h.Rests() {
		t.Errorf("μ alone holds (restHold %v) yet Rests() = %v", h.restHold, h.Rests())
	}
	if h := NewHawkesEntrant("grow", HawkesConfig{Mu: 0.001, Alpha: 0.4, Beta: -0.01, ColdCostMinutes: 15}); h.Rests() {
		t.Error("β < 0 (growing excitation) yet Rests() = true")
	}
	if !NewHawkesEntrant("default", HawkesConfig{}).Rests() {
		t.Error("the default config does not rest")
	}
}
