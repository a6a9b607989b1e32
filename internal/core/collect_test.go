package core

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
)

// onHelper reports whether the calling goroutine is a fork-join helper.
func onHelper() bool {
	buf := make([]byte, 4096)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("created by github.com/pulse-serverless/pulse/internal/forkjoin."))
}

// A dropped controller is freed by the first collection that finds it
// unreachable: it carries no finalizer, and the fork-join pool keeps no
// task once its Run returns, even when a helper ran one. A finalizer on
// the controller would keep its history and plan tables alive through one
// more collection; a pool that kept its last task would keep them for
// good, through the recorder that task belongs to.
func TestDroppedControllerFreedByOneCollection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 20_000
	cat := models.PaperCatalog()
	p, err := New(Config{Catalog: cat, Assignment: uniformAssignment(cat, n), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var helped atomic.Int32
	shardTask := p.recTask
	p.recTask = func(i int) {
		if onHelper() {
			helped.Add(1)
		}
		shardTask(i)
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	// Step until a helper has taken part in the minute just before the drop.
	for m := 0; helped.Load() == 0; m++ {
		if m == 100 {
			t.Fatal("no helper claimed a shard task in 100 minutes at GOMAXPROCS 4")
		}
		p.KeepAlive(m)
		p.RecordInvocations(m, counts)
	}
	tables := 4*len(p.hist.gBuck) + 2*len(p.hist.lBuck) + 8*len(p.plans.minutes) + 8*len(p.plans.probs)

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
