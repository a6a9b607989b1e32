package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// This file implements the sharded execution of the controller's
// embarrassingly parallel half. Per-function state — inter-arrival
// histories and keep-alive plan rings — is partitioned into contiguous
// shards, each owned by one persistent worker goroutine. The per-minute
// fan-out (RecordInvocations) runs on the pool behind a WaitGroup barrier;
// the plan gather over the active set and the global view — Algorithm 1's
// peak detection and Algorithm 2's flattening — always run single-threaded
// on the coordinator, so the paper's semantics are preserved bit for bit at
// every shard count.
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

// shardJob is one minute's unit of work for one shard: run the
// function-centric optimizer (history update, probability estimation, a
// fresh keep-alive plan) for the shard's part of invoked.
type shardJob struct {
	t       int
	invoked []int32 // coordinator-owned ascending invoked slots
}

// shard owns the contiguous function range [lo, hi). The arenas alias the
// controller's own; the worker only ever touches slots
// inside its range (plan rows are pre-acquired by the coordinator, so a
// worker never grows or frees arena storage), and the coordinator only
// reads them after the barrier.
//
// A shard never references its *Pulse: workers must not keep the
// controller reachable, so an unclosed controller can still be finalized.
type shard struct {
	lo, hi int
	jobs   chan shardJob

	hist  *histArena
	plans *planStore

	catalog    *models.Catalog
	assignment models.Assignment
	window     int
	blend      HistoryBlend
	technique  ThresholdTechnique

	// observe mirrors Observer != nil; samples are staged in buf and
	// flushed by the coordinator at the barrier in shard order.
	observe bool
	buf     telemetry.Buffer

	// timing mirrors telemetry.WantsSelf(Observer): the worker times each
	// job into scanSec/scanFns, which the coordinator reads after the
	// barrier and emits as ScanSamples in shard order.
	timing  bool
	scanSec float64
	scanFns int

	// err records the first internal-invariant violation; the coordinator
	// re-panics with it at the barrier, matching the serial path.
	err error
}

// shardPool drives one persistent worker goroutine per shard.
type shardPool struct {
	shards    []*shard
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// newShardPool partitions n functions into nShards contiguous ranges
// (sizes differing by at most one) and starts one worker per shard.
func newShardPool(cfg Config, nShards, n int, hist *histArena, plans *planStore) *shardPool {
	pool := &shardPool{shards: make([]*shard, nShards)}
	base, rem := n/nShards, n%nShards
	lo := 0
	for i := range pool.shards {
		size := base
		if i < rem {
			size++
		}
		s := &shard{
			lo:         lo,
			hi:         lo + size,
			jobs:       make(chan shardJob, 1),
			hist:       hist,
			plans:      plans,
			catalog:    cfg.Catalog,
			assignment: cfg.Assignment,
			window:     cfg.Window,
			blend:      cfg.Blend,
			technique:  cfg.Technique,
			observe:    cfg.Observer != nil,
			timing:     telemetry.WantsSelf(cfg.Observer),
		}
		pool.shards[i] = s
		lo = s.hi
		go s.run(&pool.wg)
	}
	return pool
}

// dispatch fans job out to every shard and waits for the minute barrier.
// It re-panics any worker error, matching the serial path's panics on
// impossible internal states.
func (pl *shardPool) dispatch(job shardJob) {
	pl.wg.Add(len(pl.shards))
	for _, s := range pl.shards {
		s.jobs <- job
	}
	pl.wg.Wait()
	for _, s := range pl.shards {
		if s.err != nil {
			panic("core: " + s.err.Error())
		}
	}
}

// flush replays every shard's staged Observer events in shard order —
// ascending function order, the serial emission order.
func (pl *shardPool) flush(obs telemetry.Observer) {
	for _, s := range pl.shards {
		s.buf.FlushTo(obs)
	}
}

// close stops the workers. Idempotent.
func (pl *shardPool) close() {
	pl.closeOnce.Do(func() {
		for _, s := range pl.shards {
			close(s.jobs)
		}
	})
}

// run is the worker loop: one job per barrier, until the channel closes.
func (s *shard) run(wg *sync.WaitGroup) {
	for job := range s.jobs {
		if s.err == nil {
			var t0 time.Time
			if s.timing {
				t0 = time.Now()
			}
			s.record(job.t, job.invoked)
			if s.timing {
				s.scanSec = time.Since(t0).Seconds()
				s.scanFns = s.hi - s.lo
			}
		}
		wg.Done()
	}
}

// record is the shard-local half of RecordInvocations, with Observer
// events staged: the worker binary-searches the coordinator's ascending
// invoked list for its range's start and walks the list's intersection with
// [lo, hi). The coordinator already dropped zero-count and inactive slots.
func (s *shard) record(t int, invoked []int32) {
	i := sort.Search(len(invoked), func(i int) bool { return int(invoked[i]) >= s.lo })
	for _, fn32 := range invoked[i:] {
		fn := int(fn32)
		if fn >= s.hi {
			break
		}
		if !s.recordOne(fn, t) {
			return
		}
	}
}

// recordOne runs the function-centric optimizer for one invoked slot; it
// reports false after staging an error, stopping the shard's minute.
func (s *shard) recordOne(fn, t int) bool {
	if err := s.hist.record(fn, t); err != nil {
		s.err = fmt.Errorf("history record: %w", err)
		return false
	}
	h := History{ar: s.hist, fn: fn}
	fam := s.catalog.Families[s.assignment[fn]]
	probs := h.Probabilities(s.window, s.blend)
	sched, err := Schedule(probs, s.technique, fam.NumVariants())
	if err != nil {
		s.err = fmt.Errorf("schedule: %w", err)
		return false
	}
	for d := 1; d <= s.window; d++ {
		s.plans.set(fn, t+d, sched[d], probs[d])
	}
	if s.observe {
		s.buf.ObserveSchedule(telemetry.ScheduleSample{
			Minute:   t,
			Function: fn,
			Plan:     sched[1:],
			Probs:    probs[1:],
		})
	}
	return true
}
