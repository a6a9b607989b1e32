package core

// Unit tests for the shard mechanics themselves: partitioning,
// lifecycle, defaulting, and the hot-path allocation guarantee. The
// semantic equivalence proofs live in the scenario harness
// (scenario_test.go).

import (
	"runtime"
	"testing"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

func uniformAssignment(cat *models.Catalog, nFn int) models.Assignment {
	asg := make(models.Assignment, nFn)
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	return asg
}

func newShardedPulse(t *testing.T, nFn, shards int, obs telemetry.Observer) *Pulse {
	t.Helper()
	cat := models.PaperCatalog()
	p, err := New(Config{
		Catalog:    cat,
		Assignment: uniformAssignment(cat, nFn),
		Shards:     shards,
		Observer:   obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestShardedPartitionCoversAllFunctions: the contiguous partition covers
// [0, n) exactly once, with shard sizes differing by at most one, for
// every (n, shards) shape including n not divisible by shards and more
// requested shards than functions.
func TestShardedPartitionCoversAllFunctions(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{12, 2}, {12, 5}, {12, 12}, {7, 3}, {100, 16}, {5, 64},
	} {
		p := newShardedPulse(t, tc.n, tc.shards, nil)
		want := tc.shards
		if want > tc.n {
			want = tc.n
		}
		if got := p.Shards(); got != want {
			t.Errorf("n=%d shards=%d: effective %d, want %d", tc.n, tc.shards, got, want)
		}
		lo, minSize, maxSize := 0, tc.n, 0
		for _, s := range p.rec.shards {
			if s.lo != lo {
				t.Fatalf("n=%d shards=%d: shard starts at %d, want %d (gap or overlap)", tc.n, tc.shards, s.lo, lo)
			}
			size := s.hi - s.lo
			if size <= 0 {
				t.Fatalf("n=%d shards=%d: empty shard [%d,%d)", tc.n, tc.shards, s.lo, s.hi)
			}
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			lo = s.hi
		}
		if lo != tc.n {
			t.Fatalf("n=%d shards=%d: partition ends at %d, want %d", tc.n, tc.shards, lo, tc.n)
		}
		if maxSize-minSize > 1 {
			t.Errorf("n=%d shards=%d: shard sizes range %d..%d, want balanced", tc.n, tc.shards, minSize, maxSize)
		}
	}
}

// TestShardedDefaults: Shards 0 resolves to one shard per GOMAXPROCS
// (capped at the function count), 1 gives one shard, which the fork-join
// pool runs on the caller, and negative counts are rejected.
func TestShardedDefaults(t *testing.T) {
	cat := models.PaperCatalog()
	asg := uniformAssignment(cat, 4)

	p, err := New(Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	want := min(runtime.GOMAXPROCS(0), 4)
	if p.Shards() != want {
		t.Errorf("default shards = %d, want min(GOMAXPROCS, n) = %d", p.Shards(), want)
	}

	serial, err := New(Config{Catalog: cat, Assignment: asg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Shards() != 1 {
		t.Errorf("serial Shards() = %d, want 1", serial.Shards())
	}

	if _, err := New(Config{Catalog: cat, Assignment: asg, Shards: -2}); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestShardedCloseIdempotent: Close, a no-op kept for existing callers, is
// safe to call repeatedly, on sharded and single-shard controllers.
func TestShardedCloseIdempotent(t *testing.T) {
	cat := models.PaperCatalog()
	asg := uniformAssignment(cat, 8)
	p, err := New(Config{Catalog: cat, Assignment: asg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}

	serial, err := New(Config{Catalog: cat, Assignment: asg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Close(); err != nil {
		t.Errorf("Close on serial controller: %v", err)
	}
}

// TestShardedNameStable: the policy name must not depend on the shard
// count — results are identical, so reports treat them as one policy.
func TestShardedNameStable(t *testing.T) {
	serial := newShardedPulse(t, 8, 1, nil)
	sharded := newShardedPulse(t, 8, 4, nil)
	if serial.Name() != sharded.Name() {
		t.Errorf("name depends on shard count: %q vs %q", serial.Name(), sharded.Name())
	}
}

// TestShardedIdleMinuteZeroAllocs extends the controller's hot-path
// allocation guarantee to the sharded path: once warmed up, a minute with
// no invocations must not allocate — for serial and sharded controllers,
// with and without a no-op observer attached. The pool is persistent
// precisely so minute ticks don't spawn goroutines.
func TestShardedIdleMinuteZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		obs    telemetry.Observer
	}{
		{"serial/no-observer", 1, nil},
		{"serial/nop-observer", 1, telemetry.Nop{}},
		{"sharded/no-observer", 4, nil},
		{"sharded/nop-observer", 4, telemetry.Nop{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newShardedPulse(t, 16, tc.shards, tc.obs)
			counts := make([]int, 16)
			// Warm up: drive some invocations so plans and histories
			// exist, then let the window drain.
			for i := range counts {
				counts[i] = 1
			}
			minute := 0
			for ; minute < 30; minute++ {
				p.KeepAlive(minute)
				p.RecordInvocations(minute, counts)
			}
			for i := range counts {
				counts[i] = 0
			}
			allocs := testing.AllocsPerRun(200, func() {
				p.KeepAlive(minute)
				p.RecordInvocations(minute, counts)
				minute++
			})
			if allocs != 0 {
				t.Errorf("idle minute allocates %v per run, want 0", allocs)
			}
		})
	}
}

// TestShardedWorkerErrorPanics: a worker that hits an impossible internal
// state reports it through the barrier as a panic on the coordinating
// goroutine, matching the serial path's behaviour.
func TestShardedWorkerErrorPanics(t *testing.T) {
	p := newShardedPulse(t, 8, 4, nil)
	counts := make([]int, 8)
	for i := range counts {
		counts[i] = 1
	}
	p.KeepAlive(5)
	p.RecordInvocations(5, counts)
	defer func() {
		if recover() == nil {
			t.Error("time going backwards on a shard worker did not panic")
		}
	}()
	p.RecordInvocations(2, counts) // t < last invocation: History.Record fails
}
