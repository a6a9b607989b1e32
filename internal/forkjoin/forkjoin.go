// Package forkjoin is the process's fork-join pool, which every minute
// barrier fans out on: the controller's record shards and the tournament
// arena's entrant walk. Run hands out task indices through one atomic
// counter, the calling goroutine joins the pool's helpers in claiming them,
// and Run returns once the last task has finished.
//
// The helpers are started on first use and grown, never shrunk, to
// GOMAXPROCS−1 as Run finds it; they live as long as the process, parked on
// their wake channels between runs. One pool suffices: in the daemon the
// record shards and the entrant walk are consecutive phases of one minute
// step, and offline the experiment workers already keep every core busy. A
// Run that finds the pool busy — a nested Run, or a concurrent one from
// another goroutine — runs its tasks on the caller instead.
//
// A Run allocates nothing once the helpers exist, given a task function
// the caller stores once (a method value built per call allocates), and the
// pool drops the task before Run returns, so it never keeps a caller's
// state reachable.
package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the one set of helpers. mu is held for the length of a Run; task
// and n are written under it before any helper is woken.
var pool struct {
	mu   sync.Mutex
	task func(i int)
	n    int
	next atomic.Int32
	wake []chan struct{} // one per helper, holding at most one token
	done sync.WaitGroup
}

// Run executes task(0) … task(n−1) and returns after the last one ends.
// Tasks are claimed in ascending index order but run on any worker, so they
// must not share mutable state. A task must not panic, since a panic on a
// helper cannot reach the caller: tasks report failures through their own
// state. Run may be called from any goroutine, from inside a task too; at
// most one Run at a time uses the helpers, and the others run their tasks
// on their callers, in index order.
func Run(n int, task func(i int)) {
	if n <= 1 || !pool.mu.TryLock() {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	helpers := runtime.GOMAXPROCS(0) - 1
	for len(pool.wake) < helpers {
		wake := make(chan struct{}, 1)
		pool.wake = append(pool.wake, wake)
		go help(wake)
	}
	pool.task, pool.n = task, n
	pool.next.Store(0)
	woken := min(helpers, n-1)
	pool.done.Add(woken)
	for _, wake := range pool.wake[:woken] {
		wake <- struct{}{}
	}
	claim()
	pool.done.Wait()
	pool.task = nil
	pool.mu.Unlock()
}

// claim runs unclaimed tasks of the current Run until none is left.
func claim() {
	for {
		i := int(pool.next.Add(1)) - 1
		if i >= pool.n {
			return
		}
		pool.task(i)
	}
}

// help is a helper's loop: one claim per token.
func help(wake chan struct{}) {
	for range wake {
		claim()
		pool.done.Done()
	}
}
