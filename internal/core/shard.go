package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// This file implements the sharded execution of the controller's
// embarrassingly parallel half. Per-function state — inter-arrival
// histories and keep-alive plan rings — is partitioned into contiguous
// shards, and each minute's record step (RecordInvocations) runs one
// fork-join task per shard on the process's pool (internal/forkjoin), the
// calling goroutine included. The plan gather over the active set and the global view —
// Algorithm 1's peak detection and Algorithm 2's flattening — always run
// single-threaded on the coordinator, so the paper's semantics are
// preserved bit for bit at every shard count.
//
// Determinism guarantees:
//
//   - Shard s exclusively owns functions [lo_s, hi_s); no per-function
//     state is ever touched by two goroutines.
//   - Shards are contiguous and flushed in shard order, so buffered
//     Observer events replay in ascending function order — exactly the
//     serial emission order.
//   - All floating-point accumulation happens on the coordinating
//     goroutine over the merged decision vector, in function order, so no
//     summation is ever re-associated.

// shard owns the contiguous function range [lo, hi) for one record task.
type shard struct {
	lo, hi int

	// buf stages the shard's Observer events; the coordinator flushes it
	// at the barrier in shard order.
	buf telemetry.Buffer
	// scanSec is the task's duration when timing, read after the barrier
	// and emitted as a ScanSample in shard order.
	scanSec float64
	// err records the first internal-invariant violation; the coordinator
	// re-panics with it at the barrier.
	err error
}

// recorder is the record step's task state: the minute being recorded, the
// shards, and the parts of the controller a task reads. The arenas alias
// the controller's own; a task only ever touches slots inside its shard
// (plan rows are pre-acquired by the coordinator, so a task never grows or
// frees arena storage), and the coordinator only reads them after the
// barrier.
type recorder struct {
	t       int
	invoked []int32 // coordinator-owned ascending invoked slots
	shards  []shard

	hist       *histArena
	plans      *planStore
	assignment models.Assignment // set before each run: registration appends

	catalog   *models.Catalog
	window    int
	blend     HistoryBlend
	technique ThresholdTechnique

	// observe mirrors Observer != nil; timing mirrors
	// telemetry.WantsSelf(Observer).
	observe, timing bool
}

// partition splits n functions into nShards contiguous ranges, sizes
// differing by at most one. Existing shards keep their buffers.
func (r *recorder) partition(nShards, n int) {
	for len(r.shards) < nShards {
		r.shards = append(r.shards, shard{})
	}
	r.shards = r.shards[:nShards]
	base, rem := n/nShards, n%nShards
	lo := 0
	for i := range r.shards {
		size := base
		if i < rem {
			size++
		}
		r.shards[i].lo, r.shards[i].hi = lo, lo+size
		lo += size
	}
}

// task is the fork-join task for shard i.
func (r *recorder) task(i int) {
	s := &r.shards[i]
	if s.err != nil {
		return
	}
	var t0 time.Time
	if r.timing {
		t0 = time.Now()
	}
	r.record(s)
	if r.timing {
		s.scanSec = time.Since(t0).Seconds()
	}
}

// record is the shard-local half of RecordInvocations, with Observer
// events staged: it binary-searches the coordinator's ascending invoked
// list for the shard's start and walks the list's intersection with
// [lo, hi). The coordinator already dropped zero-count and inactive slots.
func (r *recorder) record(s *shard) {
	i := sort.Search(len(r.invoked), func(i int) bool { return int(r.invoked[i]) >= s.lo })
	for _, fn32 := range r.invoked[i:] {
		fn := int(fn32)
		if fn >= s.hi {
			break
		}
		if s.err = r.recordOne(s, fn); s.err != nil {
			return
		}
	}
}

// recordOne runs the function-centric optimizer for one invoked slot.
func (r *recorder) recordOne(s *shard, fn int) error {
	if err := r.hist.record(fn, r.t); err != nil {
		return fmt.Errorf("history record: %w", err)
	}
	h := History{ar: r.hist, fn: fn}
	fam := r.catalog.Families[r.assignment[fn]]
	probs := h.Probabilities(r.window, r.blend)
	sched, err := Schedule(probs, r.technique, fam.NumVariants())
	if err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	for d := 1; d <= r.window; d++ {
		r.plans.set(fn, r.t+d, sched[d], probs[d])
	}
	if r.observe {
		s.buf.ObserveSchedule(telemetry.ScheduleSample{
			Minute:   r.t,
			Function: fn,
			Plan:     sched[1:],
			Probs:    probs[1:],
		})
	}
	return nil
}
