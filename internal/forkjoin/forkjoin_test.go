package forkjoin_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/forkjoin"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
)

// Every test here calls Run at GOMAXPROCS 4 or less (withGOMAXPROCS), so
// the helpers, which never shrink, number at most 3 whatever the host:
// TestHelpersBounded counts them.

// withGOMAXPROCS runs f with GOMAXPROCS set to n.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// stack returns the goroutine dump: every goroutine's when all is set,
// otherwise the caller's.
func stack(all bool) []byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, all)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

var createdByPool = []byte("created by github.com/pulse-serverless/pulse/internal/forkjoin.")

// helperIDs lists the goroutine IDs of every pool helper, found by their
// creator (a helper not yet scheduled shows no frame of its own).
func helperIDs() []string {
	var ids []string
	for _, g := range bytes.Split(stack(true), []byte("\n\n")) {
		if !bytes.Contains(g, createdByPool) {
			continue
		}
		var id string
		if _, err := fmt.Sscanf(string(g), "goroutine %s", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// goid returns the calling goroutine's ID.
func goid() string {
	var id string
	fmt.Sscanf(string(stack(false)), "goroutine %s", &id)
	return id
}

func TestRunCoversEveryTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withGOMAXPROCS(procs, func() {
			var hits [100]atomic.Int32
			task := func(i int) { hits[i].Add(1) }
			for _, n := range []int{0, 1, 3, 17, 100} {
				forkjoin.Run(n, task)
				for i := range hits {
					want := int32(0)
					if i < n {
						want = 1
					}
					if got := hits[i].Swap(0); got != want {
						t.Errorf("GOMAXPROCS=%d n=%d: task %d ran %d times, want %d", procs, n, i, got, want)
					}
				}
			}
		})
	}
}

type summer struct{ sum atomic.Int64 }

func (s *summer) add(i int) { s.sum.Add(int64(i)) }

// TestRunZeroAllocs drives Run with a task stored once as a method value,
// as the controller and the arena do. Mallocs are counted by hand because
// testing.AllocsPerRun sets GOMAXPROCS to 1, which would leave the helpers
// asleep.
func TestRunZeroAllocs(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			withGOMAXPROCS(procs, func() {
				var s summer
				task := s.add
				const runs = 200
				forkjoin.Run(8, task) // starts the helpers
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					forkjoin.Run(8, task)
				}
				runtime.ReadMemStats(&after)
				if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
					t.Errorf("Run allocates %d per call, want 0", allocs)
				}
				if got, want := s.sum.Load(), int64((runs+1)*28); got != want {
					t.Errorf("tasks summed %d, want %d", got, want)
				}
			})
		})
	}
}

// A Run from inside a task finds the pool taken and runs every one of its
// tasks inline, on the task's own goroutine, whether that is the caller or
// a helper.
func TestNestedRunRunsInline(t *testing.T) {
	withGOMAXPROCS(4, func() {
		const outer, inner = 4, 8
		var hits [outer][inner]atomic.Int32
		var offGoroutine atomic.Int32
		done := make(chan struct{})
		go func() {
			defer close(done)
			forkjoin.Run(outer, func(i int) {
				id := goid()
				forkjoin.Run(inner, func(j int) {
					if goid() != id {
						offGoroutine.Add(1)
					}
					hits[i][j].Add(1)
				})
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a nested Run did not return")
		}
		if n := offGoroutine.Load(); n != 0 {
			t.Errorf("%d nested tasks left their task's goroutine", n)
		}
		for i := range hits {
			for j := range hits[i] {
				if got := hits[i][j].Load(); got != 1 {
					t.Errorf("nested task (%d, %d) ran %d times, want 1", i, j, got)
				}
			}
		}
	})
}

// Two goroutines calling Run at once: one gets the helpers, the other runs
// its tasks itself, and each gets every task exactly once per Run.
func TestConcurrentRunsCoverEveryTaskOnce(t *testing.T) {
	withGOMAXPROCS(4, func() {
		const callers, n, rounds = 2, 64, 200
		var hits [callers][n]atomic.Int32
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				task := func(i int) { hits[c][i].Add(1) }
				for r := 0; r < rounds; r++ {
					forkjoin.Run(n, task)
				}
			}()
		}
		wg.Wait()
		for c := range hits {
			for i := range hits[c] {
				if got := hits[c][i].Load(); got != rounds {
					t.Errorf("caller %d: task %d ran %d times in %d runs", c, i, got, rounds)
				}
			}
		}
	})
}

func newController(t *testing.T, nFn int) *core.Pulse {
	t.Helper()
	asg := make(models.Assignment, nFn)
	for i := range asg {
		asg[i] = i % 3
	}
	p, err := core.New(core.Config{Catalog: models.PaperCatalog(), Assignment: asg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepController drives one minute with every function invoked.
func stepController(p *core.Pulse, minute int) {
	counts := make([]int, len(p.KeepAlive(minute)))
	for i := range counts {
		counts[i] = 1
	}
	p.RecordInvocations(minute, counts)
}

func newArena(t *testing.T) *tournament.Arena {
	t.Helper()
	a, err := tournament.New(tournament.Config{Catalog: models.PaperCatalog(), Assignment: models.Assignment{0, 1, 2, 0}, Entrants: []tournament.ShadowEntrant{
		tournament.NewFixedWindow("fixed-high", cluster.DefaultKeepAliveWindow),
		tournament.NewNever("never"),
		tournament.NewOracle("oracle"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// stepArena closes one minute with slot 0 invoked.
func stepArena(a *tournament.Arena, minute int) {
	variant := models.PaperCatalog().Families[0].Variants[0].Name
	a.ObserveInvocation(telemetry.InvocationSample{Minute: minute, Function: 0, Count: 1, Variant: variant})
	a.ObserveMinute(telemetry.MinuteSample{Minute: minute})
	a.ObserveMinute(telemetry.MinuteSample{Minute: minute + 1})
}

// A hundred 4-shard controllers and a hundred 3-entrant arenas, each
// stepped through a minute, share at most GOMAXPROCS−1 helpers with no
// collection run and nothing closed; a registration burst that
// re-partitions a controller's shards starts none.
func TestHelpersBounded(t *testing.T) {
	withGOMAXPROCS(4, func() {
		var ctrls [100]*core.Pulse
		var arenas [100]*tournament.Arena
		for i := range ctrls {
			ctrls[i] = newController(t, 8)
			stepController(ctrls[i], 0)
		}
		for i := range arenas {
			arenas[i] = newArena(t)
			stepArena(arenas[i], 0)
		}
		before := helperIDs()
		if len(before) == 0 || len(before) > 3 {
			t.Fatalf("%d helpers serve 100 controllers and 100 arenas at GOMAXPROCS 4, want 1 to 3", len(before))
		}
		p := ctrls[0]
		for i := 0; i < 100; i++ {
			if _, err := p.RegisterFunction(fmt.Sprintf("burst-%d", i), i%3); err != nil {
				t.Fatal(err)
			}
		}
		stepController(p, 1)
		if got := p.Shards(); got != 4 {
			t.Errorf("after the burst: %d shards, want 4", got)
		}
		if after := helperIDs(); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Errorf("helpers %v became %v across a registration burst", before, after)
		}
		runtime.KeepAlive(&ctrls)
		runtime.KeepAlive(&arenas)
	})
}
