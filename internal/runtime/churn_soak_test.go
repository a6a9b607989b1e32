package runtime

// Churn soak: a runtime that registers, drives, and deregisters functions
// forever must reach a bounded steady-state heap cost per departed slot.
// Slots are never reused, so some per-slot cost is permanent by design —
// the registry tombstone, the 64-byte fnState, the controller's zeroed
// slab row — but the heavy learned state (histograms, spill lists, local
// queues, plan rows, attribution ledgers) must be released at deregister.
// Before the release rule existed, every departed function kept its full
// History and plan ring alive forever; this test pins the fix.

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
)

// soakHeapBudgetBytes bounds the steady-state retained heap per departed
// function. The permanent tombstone cost is roughly: runtime fnState
// (64 B) + fns pointer (8 B) + countsBuf (8 B) + two registry entries with
// the name string (~150 B) + controller slab cells (lastInv, buckets,
// totals, row/expiry, decision/prob ≈ 230 B) + empty slice headers (~70 B).
// The budget leaves ~2× headroom over that sum for allocator rounding and
// GC measurement noise; retained per-slot maps or plan rows (the bug this
// pins against) cost multiple KB per slot and blow straight through it.
const soakHeapBudgetBytes = 1536

func TestChurnSoakBoundedMemory(t *testing.T) {
	cat := models.PaperCatalog()
	asg := make(models.Assignment, 4)
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Mode: ModeEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, ok := any(p).(cluster.ActiveSetPolicy); !ok {
		t.Fatal("sparse serving path not engaged; the soak must cover it")
	}

	const (
		cycles   = 8
		perCycle = 250
		minutes  = 10
	)
	heapEnd := make([]int64, 0, cycles)
	next := 0
	names := make([]string, 0, perCycle)
	for c := 0; c < cycles; c++ {
		names = names[:0]
		for i := 0; i < perCycle; i++ {
			name := fmt.Sprintf("soak-%d", next)
			next++
			if _, err := rt.Register(name, next%len(cat.Families)); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		// Drive real load so histories, plans, and priorities accumulate
		// state worth releasing.
		for m := 0; m < minutes; m++ {
			for _, name := range names {
				slot, ok := rt.LookupFunction(name)
				if !ok {
					t.Fatalf("cycle %d: %s vanished", c, name)
				}
				if _, err := rt.Invoke(slot); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			if err := rt.Deregister(name); err != nil {
				t.Fatal(err)
			}
		}
		// Idle minutes drain the departed slots' plans so compaction
		// returns their rows to the free list.
		for m := 0; m < minutes+5; m++ {
			if err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		goruntime.GC()
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		heapEnd = append(heapEnd, int64(ms.HeapAlloc))
	}

	// Steady state: per-departed-slot growth from the end of cycle 2 on
	// (the first cycles also pay one-time slab and buffer capacity).
	departed := int64(perCycle * (cycles - 2))
	growth := heapEnd[cycles-1] - heapEnd[1]
	perFn := float64(growth) / float64(departed)
	t.Logf("heap growth %d B over %d departed functions = %.0f B/function (budget %d)",
		growth, departed, perFn, soakHeapBudgetBytes)
	if perFn > soakHeapBudgetBytes {
		t.Errorf("steady-state heap retention %.0f B per departed function exceeds budget %d B",
			perFn, soakHeapBudgetBytes)
	}
}
