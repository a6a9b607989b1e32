package tournament

import (
	"runtime"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// An arena nobody holds is freed by the first collection that finds it
// unreachable: it carries no finalizer itself (its pool's guard does), and
// the walker its pool's helpers hold points at none of its entrants between
// walks. A finalizer on the arena would keep its ledger tables alive
// through one more collection.
func TestDroppedArenaFreedByOneCollection(t *testing.T) {
	const slots = 20_000
	cat := models.PaperCatalog()
	asg := make(models.Assignment, slots)
	for fn := range asg {
		asg[fn] = fn % len(cat.Families)
	}
	a, err := newArena(Config{Catalog: cat, Assignment: asg, Entrants: []ShadowEntrant{
		NewFixedWindow("fixed-high", cluster.DefaultKeepAliveWindow),
		NewNever("never"),
		NewOracle("oracle"),
	}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		for fn := m; fn < slots; fn += 7 {
			a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: fn, Count: 1, Variant: cat.Families[asg[fn]].Variants[0].Name})
		}
		a.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
	tables := 8 * len(a.led)
	for i := range a.ents {
		tables += 8*len(a.ents[i].led) + len(a.ents[i].open)
	}
	if a.pool.Workers() < 2 {
		t.Fatalf("arena runs %d workers, want helpers", a.pool.Workers())
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
