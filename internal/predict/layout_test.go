package predict

// Layout differential for the Holt-Winters smoother. Production stores the
// seasonal profile minute-major in blocks of hwBlock functions; refHW below
// is the function-major smoother it replaced (one season array per
// function), kept as the reference. The two must agree bit for bit — the
// layout moves cells, never arithmetic — so every comparison is on
// math.Float64bits.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
)

// refHW is the function-major reference smoother.
type refHW struct {
	cfg     HWConfig
	level   []float64
	trend   []float64
	season  [][]float64
	seen    []int
	lastInv []int
}

func (r *refHW) grow() {
	r.level = append(r.level, 0)
	r.trend = append(r.trend, 0)
	r.season = append(r.season, make([]float64, r.cfg.SeasonLength))
	r.seen = append(r.seen, 0)
	r.lastInv = append(r.lastInv, -1)
}

func (r *refHW) record(t, fn, count int) {
	if count > 0 {
		r.lastInv[fn] = t
	}
	x := float64(count)
	si := t % r.cfg.SeasonLength
	if r.seen[fn] == 0 {
		r.level[fn] = x
		r.season[fn][si] = 0
		r.seen[fn]++
		return
	}
	prevLevel := r.level[fn]
	seas := r.season[fn][si]
	r.level[fn] = r.cfg.Alpha*(x-seas) + (1-r.cfg.Alpha)*(prevLevel+r.trend[fn])
	r.trend[fn] = r.cfg.Beta*(r.level[fn]-prevLevel) + (1-r.cfg.Beta)*r.trend[fn]
	r.season[fn][si] = r.cfg.Gamma*(x-r.level[fn]) + (1-r.cfg.Gamma)*seas
	r.seen[fn]++
}

func (r *refHW) forecast(t, fn int) float64 {
	if r.seen[fn] == 0 {
		return 0
	}
	return math.Max(0, r.level[fn]+r.trend[fn]+r.season[fn][t%r.cfg.SeasonLength])
}

func (r *refHW) wantWarm(t, fn int) bool {
	if last := r.lastInv[fn]; last >= 0 && t > last && t-last <= r.cfg.PostInvocationWindow {
		return true
	}
	return r.forecast(t, fn) >= r.cfg.ActivationThreshold
}

// retire resets the slot, seasonal cells included (production leaves the
// cells of a retired slot behind; nothing may read them).
func (r *refHW) retire(fn int) {
	r.level[fn], r.trend[fn], r.seen[fn], r.lastInv[fn] = 0, 0, 0, -1
	for i := range r.season[fn] {
		r.season[fn][i] = 0
	}
}

// keepAlive is the MPC horizon with no fast path: every offset's forecast
// is evaluated through forecast().
func (r *refHW) keepAlive(cfg MPCConfig, m, fn, highest int) int {
	cum := 0.0
	for j := 0; j < cfg.Horizon; j++ {
		cum += 1 - math.Exp(-r.forecast(m+j, fn))
		if float64(j+1) < cfg.ColdCostMinutes*cum {
			return highest
		}
	}
	return cluster.NoVariant
}

// layoutCount draws minute t's count for fn: every fifth function never
// sees an invocation (the smoother's idle fixed point), the others are
// bursty with a per-function rate.
func layoutCount(rng *rand.Rand, fn int) int {
	if fn%5 == 4 || rng.Intn(3+fn%4) != 0 {
		return 0
	}
	return 1 + rng.Intn(6)
}

const layoutHorizon = 10 // offsets compared per slot per minute

// compareSlot checks every observable of one slot at minute t (the next
// minute to be recorded).
func compareSlot(t *testing.T, hw *HoltWinters, ref *refHW, minute, fn int) {
	t.Helper()
	if g, w := math.Float64bits(hw.level[fn]), math.Float64bits(ref.level[fn]); g != w {
		t.Fatalf("minute %d fn %d: level bits %#x, reference %#x", minute, fn, g, w)
	}
	if g, w := math.Float64bits(hw.trend[fn]), math.Float64bits(ref.trend[fn]); g != w {
		t.Fatalf("minute %d fn %d: trend bits %#x, reference %#x", minute, fn, g, w)
	}
	for j := 0; j < layoutHorizon; j++ {
		g, w := math.Float64bits(hw.Forecast(minute+j, fn)), math.Float64bits(ref.forecast(minute+j, fn))
		if g != w {
			t.Fatalf("minute %d fn %d: Forecast(+%d) bits %#x, reference %#x", minute, fn, j, g, w)
		}
	}
	if g, w := hw.WantWarm(minute, fn), ref.wantWarm(minute, fn); g != w {
		t.Fatalf("minute %d fn %d: WantWarm %v, reference %v", minute, fn, g, w)
	}
}

// layoutMinutes runs far enough past the season's wrap-around that every
// cell is read back, at every horizon offset, after it was written through
// the blocked index.
func layoutMinutes(season int) int { return season + 2*layoutHorizon + 5 }

// eachLayoutCase runs f for every season length × population of the
// differential: populations straddle the block size, seasons include the
// shortest legal one and the day-long default.
func eachLayoutCase(t *testing.T, f func(t *testing.T, season, pop int)) {
	for _, season := range []int{2, 7, 1440} {
		for _, pop := range []int{1, hwBlock - 1, hwBlock, hwBlock + 1, 1000} {
			t.Run(fmt.Sprintf("season%d/pop%d", season, pop), func(t *testing.T) { f(t, season, pop) })
		}
	}
}

func TestHoltWintersLayoutDifferential(t *testing.T) {
	eachLayoutCase(t, func(t *testing.T, season, pop int) {
		cfg := DefaultHWConfig()
		cfg.SeasonLength = season
		hw, err := NewHoltWinters(pop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refHW{cfg: cfg}
		for fn := 0; fn < pop; fn++ {
			ref.grow()
		}
		rng := rand.New(rand.NewSource(int64(season*10_000 + pop)))
		for m := 0; m < layoutMinutes(season); m++ {
			for fn := 0; fn < pop; fn++ {
				c := layoutCount(rng, fn)
				hw.Record(m, fn, c)
				ref.record(m, fn, c)
			}
			for fn := 0; fn < pop; fn++ {
				compareSlot(t, hw, ref, m+1, fn)
			}
		}
	})
}

// The MPC entrant grows its forecaster slot by slot, across block
// boundaries, while earlier slots are mid-stream, and retires slots; its
// decisions must equal the reference horizon (which has no fast path) on
// every live slot of every minute.
func TestMPCLayoutDifferential(t *testing.T) {
	eachLayoutCase(t, func(t *testing.T, season, pop int) {
		cfg := DefaultMPCConfig()
		cfg.HW.SeasonLength = season
		e, err := NewMPCEntrant("mpc", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refHW{cfg: cfg.HW}
		var highest []int
		retired := map[int]bool{}
		register := func() {
			nv := 2 + len(highest)%3
			e.Register(len(highest), 0, nv)
			ref.grow()
			highest = append(highest, nv-1)
		}
		for fn := 0; fn < pop; fn++ {
			register()
		}
		rng := rand.New(rand.NewSource(int64(season*20_000 + pop)))
		minutes := layoutMinutes(season)
		for m := 0; m < minutes; m++ {
			for fn := range highest {
				if retired[fn] {
					continue
				}
				if g, w := e.KeepAlive(m, fn), ref.keepAlive(cfg, m, fn, highest[fn]); g != w {
					t.Fatalf("minute %d fn %d: KeepAlive %d, reference %d", m, fn, g, w)
				}
				compareSlot(t, e.hw, ref, m, fn)
			}
			// Mid-minute lifecycle, as the arena delivers it: three
			// growth spurts that each carry the population over the
			// next block boundary, and a retirement a third of the way
			// in of a slot that has history.
			if m == minutes/4 || m == minutes/2 || m == 3*minutes/4 {
				for n := hwBlock - len(highest)%hwBlock + 2; n > 0; n-- {
					register()
				}
			}
			if m == minutes/3 {
				fn := len(highest) / 2
				e.Retire(fn)
				ref.retire(fn)
				retired[fn] = true
				if e.hw.seen[fn] || e.hw.lastInv[fn] != -1 {
					t.Fatalf("retired slot %d not reset", fn)
				}
				compareSlot(t, e.hw, ref, m+1, fn)
				if v := e.KeepAlive(m+1, fn); v != cluster.NoVariant {
					t.Fatalf("retired slot %d held %d", fn, v)
				}
			}
			for fn := range highest {
				if retired[fn] {
					continue
				}
				c := layoutCount(rng, fn)
				e.Record(m, fn, c)
				ref.record(m, fn, c)
			}
		}
	})
}

// All-zero level, trend and season is an exact fixed point of the smoother
// under zero input, whatever the smoothing factors: this is what lets
// MPCEntrant.KeepAlive answer NoVariant for a never-invoked slot without
// reading its forecast. Checked on the bits (+0, not merely == 0) for
// seeded random factors, through the first-observation branch and past the
// season's wrap-around.
func TestHoltWintersIdleFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		cfg := DefaultMPCConfig()
		cfg.HW.Alpha = 0.001 + 0.998*rng.Float64()
		cfg.HW.Beta = 0.001 + 0.998*rng.Float64()
		cfg.HW.Gamma = 0.001 + 0.998*rng.Float64()
		cfg.HW.SeasonLength = 2 + rng.Intn(40)
		e, err := NewMPCEntrant("mpc", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refHW{cfg: cfg.HW}
		const idle, busy = 1, 0
		for fn := 0; fn < 2; fn++ {
			e.Register(fn, 0, 3)
			ref.grow()
		}
		start := rng.Intn(100)
		for m := start; m < start+3*cfg.HW.SeasonLength; m++ {
			if v := ref.keepAlive(cfg, m, idle, 2); v != cluster.NoVariant {
				t.Fatalf("trial %d minute %d: reference horizon holds %d for a never-invoked slot", trial, m, v)
			}
			if v := e.KeepAlive(m, idle); v != cluster.NoVariant {
				t.Fatalf("trial %d minute %d: never-invoked slot held on %d", trial, m, v)
			}
			e.Record(m, idle, 0)
			ref.record(m, idle, 0)
			c := rng.Intn(4)
			e.Record(m, busy, c)
			ref.record(m, busy, c)
			if math.Float64bits(e.hw.level[idle]) != 0 || math.Float64bits(e.hw.trend[idle]) != 0 {
				t.Fatalf("trial %d minute %d: idle slot drifted: level %v trend %v", trial, m, e.hw.level[idle], e.hw.trend[idle])
			}
			for si := 0; si < cfg.HW.SeasonLength; si++ {
				if math.Float64bits(*e.hw.cell(idle, si)) != 0 {
					t.Fatalf("trial %d minute %d: idle slot's season[%d] = %v, want +0", trial, m, si, *e.hw.cell(idle, si))
				}
			}
		}
		if e.hw.lastInv[idle] >= 0 || !e.hw.seen[idle] {
			t.Fatalf("trial %d: idle slot bookkeeping: lastInv %d seen %v", trial, e.hw.lastInv[idle], e.hw.seen[idle])
		}
	}
}
