package core

import (
	"runtime"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
)

// A controller dropped without Close is freed by the first collection that
// finds it unreachable: it carries no finalizer itself (its pool's guard
// does), and the recorder its pool's helpers hold points at none of its
// arenas between runs. A finalizer on the controller would keep its history
// and plan tables alive through one more collection.
func TestDroppedControllerFreedByOneCollection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 20_000
	cat := models.PaperCatalog()
	p, err := New(Config{Catalog: cat, Assignment: uniformAssignment(cat, n), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	for m := 0; m < 2; m++ {
		p.KeepAlive(m)
		p.RecordInvocations(m, counts)
	}
	tables := 4*len(p.hist.gBuck) + 2*len(p.hist.lBuck) + 8*len(p.plans.minutes) + 8*len(p.plans.probs)
	if p.pool.Workers() < 2 {
		t.Fatalf("controller runs %d workers, want helpers", p.pool.Workers())
	}

	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(p)
	runtime.GC()
	runtime.ReadMemStats(&freed)
	if fell := int64(held.HeapAlloc) - int64(freed.HeapAlloc); fell < int64(tables) {
		t.Errorf("one collection after dropping the controller freed %d B, want at least its %d B of history and plan tables", fell, tables)
	}
}
