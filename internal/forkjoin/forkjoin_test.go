package forkjoin_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
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

// helperIDs lists the goroutine IDs of every running pool helper, found by
// their creator (a helper not yet scheduled shows no frame of its own).
func helperIDs() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var ids []string
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("created by github.com/pulse-serverless/pulse/internal/forkjoin.New")) {
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

// awaitNoHelpers collects garbage until every closed or unreachable pool's
// helpers have exited.
func awaitNoHelpers(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(helperIDs()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool helpers still running", len(helperIDs()))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// withGOMAXPROCS runs build with GOMAXPROCS raised to n, so an owner that
// sizes its pool by GOMAXPROCS gets helpers on any host.
func withGOMAXPROCS(n int, build func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	build()
}

func TestRunCoversEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4} {
		var hits [100]atomic.Int32
		p := forkjoin.New(workers, func(i int) { hits[i].Add(1) })
		for _, n := range []int{0, 1, 3, 17, 100} {
			p.Run(n)
			for i := range hits {
				want := int32(0)
				if i < n {
					want = 1
				}
				if got := hits[i].Swap(0); got != want {
					t.Errorf("workers=%d n=%d: task %d ran %d times, want %d", workers, n, i, got, want)
				}
			}
		}
		p.Close()
	}
	awaitNoHelpers(t)
}

func TestRunZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var sum atomic.Int64
			p := forkjoin.New(workers, func(i int) { sum.Add(int64(i)) })
			defer p.Close()
			if allocs := testing.AllocsPerRun(200, func() { p.Run(8) }); allocs != 0 {
				t.Errorf("Run allocates %v per call, want 0", allocs)
			}
		})
	}
}

func TestCloseStopsHelpers(t *testing.T) {
	awaitNoHelpers(t)
	p := forkjoin.New(4, func(int) {})
	p.Run(4)
	if got := len(helperIDs()); got != 3 {
		t.Fatalf("4-worker pool runs %d helpers, want 3", got)
	}
	p.Close()
	awaitNoHelpers(t)
	p.Close() // a second Close is a no-op
	if got := len(helperIDs()); got != 0 {
		t.Fatalf("second Close left %d helpers", got)
	}
}

func newController(t *testing.T, nFn int) *core.Pulse {
	t.Helper()
	asg := make(models.Assignment, nFn)
	for i := range asg {
		asg[i] = i % 3
	}
	var p *core.Pulse
	withGOMAXPROCS(4, func() {
		var err error
		p, err = core.New(core.Config{Catalog: models.PaperCatalog(), Assignment: asg, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
	})
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

func TestControllerHelpersExitWhenUnreferenced(t *testing.T) {
	awaitNoHelpers(t)
	func() {
		p := newController(t, 8)
		stepController(p, 0)
		if got := len(helperIDs()); got != 3 {
			t.Fatalf("4-shard controller runs %d helpers, want 3", got)
		}
		runtime.KeepAlive(p)
	}()
	awaitNoHelpers(t)
}

// A registration burst re-partitions the shards; it must not respawn the
// helpers.
func TestControllerRegistrationKeepsHelpers(t *testing.T) {
	awaitNoHelpers(t)
	p := newController(t, 2)
	defer p.Close()
	stepController(p, 0)
	before := helperIDs()
	if len(before) != 3 {
		t.Fatalf("controller runs %d helpers, want 3", len(before))
	}
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
}

func TestArenaHelpersExitWhenUnreferenced(t *testing.T) {
	awaitNoHelpers(t)
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1, 2, 0}
	func() {
		var a *tournament.Arena
		withGOMAXPROCS(3, func() {
			var err error
			a, err = tournament.New(tournament.Config{Catalog: cat, Assignment: asg, Entrants: []tournament.ShadowEntrant{
				tournament.NewFixedWindow("fixed-high", cluster.DefaultKeepAliveWindow),
				tournament.NewNever("never"),
				tournament.NewOracle("oracle"),
			}})
			if err != nil {
				t.Fatal(err)
			}
		})
		for m := 0; m < 3; m++ {
			a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 0, Count: 1, Variant: cat.Families[0].Variants[0].Name})
			a.ObserveMinute(telemetry.MinuteSample{Minute: m})
		}
		if got := len(helperIDs()); got != 2 {
			t.Fatalf("3-entrant arena runs %d helpers, want 2", got)
		}
		runtime.KeepAlive(a)
	}()
	awaitNoHelpers(t)
}
