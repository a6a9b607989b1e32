package tournament

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// An arena nobody holds is freed by the first collection that finds it
// unreachable: it carries no finalizer, and the fork-join pool keeps no
// task once its Run returns, even when a helper ran one. A finalizer on the
// arena would keep its ledger tables alive through one more collection; a
// pool that kept its last task would keep them for good, through the
// walker that task belongs to.
func TestDroppedArenaFreedByOneCollection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const slots = 20_000
	cat := models.PaperCatalog()
	asg := make(models.Assignment, slots)
	for fn := range asg {
		asg[fn] = fn % len(cat.Families)
	}
	a, err := New(Config{Catalog: cat, Assignment: asg, Entrants: []ShadowEntrant{
		NewFixedWindow("fixed-high", cluster.DefaultKeepAliveWindow),
		NewNever("never"),
		NewOracle("oracle"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var helped atomic.Int32
	walk := a.walk
	a.walk = func(i int) {
		if onHelper() {
			helped.Add(1)
		}
		walk(i)
	}
	// Step until a helper has walked an entrant in the boundary just before
	// the drop.
	for m := 0; helped.Load() == 0; m++ {
		if m == 100 {
			t.Fatal("no helper walked an entrant in 100 minutes at GOMAXPROCS 4")
		}
		for fn := m % 7; fn < slots; fn += 7 {
			a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: fn, Count: 1, Variant: cat.Families[asg[fn]].Variants[0].Name})
		}
		a.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
	tables := 8 * len(a.led)
	for i := range a.ents {
		tables += 8*len(a.ents[i].led) + len(a.ents[i].open)
	}

	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(a)
	runtime.GC()
	runtime.ReadMemStats(&freed)
	if fell := int64(held.HeapAlloc) - int64(freed.HeapAlloc); fell < int64(tables) {
		t.Errorf("one collection after dropping the arena freed %d B, want at least its %d B of ledger tables", fell, tables)
	}
}

// onHelper reports whether the calling goroutine is a fork-join helper.
func onHelper() bool {
	buf := make([]byte, 4096)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("created by github.com/pulse-serverless/pulse/internal/forkjoin."))
}
