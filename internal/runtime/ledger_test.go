package runtime

// The runtime's accounting: Stats prices the ledger every closed
// function-minute was counted into, plus the open minute read off the dirty
// chain. These tests pin that each invocation is counted exactly once
// whichever way its minute closes (a Step, a Deregister, or not at all
// before Close), that a read costs nothing on the heap, and the stripe's
// size.

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
)

// TestFnStateIsOneCacheLine pins the stripe at one 64-byte cache line.
func TestFnStateIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(fnState{}); got != 64 {
		t.Errorf("unsafe.Sizeof(fnState{}) = %d, want 64", got)
	}
}

// statsTotals is what Stats accumulates over invocations.
type statsTotals struct {
	Invocations, WarmStarts, ColdStarts int
	ServiceSec, AccuracySumPct          float64
}

func totalsOf(s Stats) statsTotals {
	return statsTotals{s.Invocations, s.WarmStarts, s.ColdStarts, s.TotalServiceSec, s.AccuracySumPct}
}

// servedTotals prices the outcomes Invoke returned: the account Stats owes
// for them, built from the invocations alone.
func servedTotals(t *testing.T, cat *models.Catalog, r *Runtime, invs []Invocation) statsTotals {
	t.Helper()
	led := cluster.NewLedgers(cat)
	for _, inv := range invs {
		famIdx := r.cfg.Assignment[inv.Function]
		vi := -1
		for i, v := range cat.Families[famIdx].Variants {
			if v.Name == inv.Variant {
				vi = i
			}
		}
		if inv.Cold {
			led[famIdx].Serve(vi, 0, 1)
		} else {
			led[famIdx].Serve(vi, 1, 0)
		}
	}
	p := led.Price(cat, r.cfg.Cost)
	return statsTotals{p.Invocations, p.WarmStarts, p.ColdStarts, p.ServiceSec, p.AccuracySumPct}
}

// TestStatsCountsEveryInvocationOnce invokes two functions in one minute,
// deregisters one of them before the minute closes, and reads Stats before
// the Step that closes it, after that Step, after more invocations in the
// next (open) minute, and after Close: every invocation is counted exactly
// once at every point, the open minute's included.
func TestStatsCountsEveryInvocationOnce(t *testing.T) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1, 2}
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			var invs []Invocation
			invoke := func(fn, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					inv, err := r.Invoke(fn)
					if err != nil {
						t.Fatal(err)
					}
					invs = append(invs, inv)
				}
			}
			check := func(when string) {
				t.Helper()
				if got, want := totalsOf(r.Stats()), servedTotals(t, cat, r, invs); got != want {
					t.Errorf("%s: Stats totals %+v, want %+v", when, got, want)
				}
			}

			invoke(0, 3)
			invoke(1, 2)
			if err := r.Deregister("fn-0"); err != nil {
				t.Fatal(err)
			}
			check("open minute, fn-0 deregistered in it")
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
			check("after the Step closing it")
			invoke(1, 4)
			invoke(2, 1)
			check("next minute open")
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			check("after Close, that minute still open")
			if s := r.Stats(); s.Invocations != 10 || s.ColdStarts < 2 {
				t.Errorf("Stats after Close = %+v, want 10 invocations, at least 2 cold", s)
			}
		})
	}
}

// statsRuntime builds a fixed-policy runtime of n slots, started, with every
// stride-th slot invoked once in the open minute (none when stride is 0).
func statsRuntime(tb testing.TB, n, stride int, mode string) *Runtime {
	tb.Helper()
	cat := models.PaperCatalog()
	asg := make(models.Assignment, n)
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	p, err := policy.NewFixed(cat, asg, cluster.DefaultKeepAliveWindow, policy.QualityHighest)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0)), Mode: mode})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Step(); err != nil {
		tb.Fatal(err)
	}
	for fn := 0; stride > 0 && fn < n; fn += stride {
		if _, err := r.Invoke(fn); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

// TestStatsZeroAllocs pins a Stats read — ledger copy, dirty-chain walk and
// pricing — at zero heap allocations in both modes. Run by the CI alloc job.
func TestStatsZeroAllocs(t *testing.T) {
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			r := statsRuntime(t, 1000, 100, mode)
			defer r.Close()
			if avg := testing.AllocsPerRun(100, func() { r.Stats() }); avg != 0 {
				t.Errorf("Stats allocates %v times, want 0", avg)
			}
		})
	}
}

// statsSink keeps BenchmarkStats' reads live.
var statsSink Stats

// BenchmarkStats times one Stats read at two populations, with an idle open
// minute and with 1 % of the slots invoked in it: the read walks the dirty
// chain, so its cost follows the invoked slots, not the population.
func BenchmarkStats(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		for _, c := range []struct {
			name   string
			stride int
		}{{"idle", 0}, {"invoked=1%", 100}} {
			b.Run(fmt.Sprintf("slots=%dk/%s", n/1000, c.name), func(b *testing.B) {
				r := statsRuntime(b, n, c.stride, ModeEpoch)
				defer r.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					statsSink = r.Stats()
				}
			})
		}
	}
}
