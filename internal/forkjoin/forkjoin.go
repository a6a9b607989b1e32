// Package forkjoin is the persistent fork-join pool every minute barrier
// fans out on: the controller's record shards and the tournament arena's
// entrant walk. A Pool owns workers−1 helper goroutines for its lifetime;
// each Run hands out task indices through one atomic counter, the calling
// goroutine joins the helpers in claiming them, and Run returns once the
// last task has finished. With one worker the caller runs every task on the
// same code path and the pool owns no goroutine.
//
// A Run allocates nothing: the helpers are parked on a buffered channel
// between runs and woken with one token each. The helpers reference only
// the pool and its task function, so an owner that keeps its task state in
// a separate object (never in the closure's receiver), and points that
// state at its own data only for the length of a Run, stays collectable;
// a Guard it references then closes the pool once it is collected.
package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs indexed tasks on the caller plus persistent helpers.
type Pool struct {
	task    func(i int)
	n       int // tasks in the current Run; written before the helpers wake
	next    atomic.Int32
	helpers int
	wake    chan struct{} // one token per woken helper per Run
	done    sync.WaitGroup
	stop    sync.Once
}

// New starts a pool of workers goroutines, the caller of Run included, so
// workers−1 helpers (none when workers ≤ 1). task(i) runs once for every i
// in 0..n−1 of each Run(n); it must not panic, since a panic on a helper
// cannot reach the caller, so tasks report failures through their own state.
func New(workers int, task func(i int)) *Pool {
	p := &Pool{task: task, helpers: max(workers-1, 0)}
	p.wake = make(chan struct{}, p.helpers)
	for i := 0; i < p.helpers; i++ {
		go p.help()
	}
	return p
}

// Workers returns the goroutines a Run can use, the caller included.
func (p *Pool) Workers() int { return p.helpers + 1 }

// Run executes task(0) … task(n−1) and returns after the last one ends.
// Tasks run in claim order (ascending index) but on any worker, so tasks
// must not share mutable state. At most n−1 helpers are woken. Run must not
// be called concurrently with itself or after Close.
func (p *Pool) Run(n int) {
	p.n = n
	p.next.Store(0)
	woken := min(p.helpers, n-1)
	if woken > 0 {
		p.done.Add(woken)
		for i := 0; i < woken; i++ {
			p.wake <- struct{}{}
		}
	}
	p.claim()
	p.done.Wait()
}

// claim runs unclaimed tasks until none is left.
func (p *Pool) claim() {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.task(i)
	}
}

// help is a helper's loop: one claim per token, until the pool closes.
func (p *Pool) help() {
	for range p.wake {
		p.claim()
		p.done.Done()
	}
}

// Close stops the helpers. It is idempotent.
func (p *Pool) Close() {
	p.stop.Do(func() { close(p.wake) })
}

// Guard is the sentinel an owner of a Pool references so that collecting
// the owner closes the pool: the guard becomes unreachable with its owner,
// and its finalizer stops the helpers. The finalizer sits on the guard, not
// the owner, because an object with a finalizer keeps everything it
// references alive through one more collection.
type Guard struct{ p *Pool }

// NewGuard returns a guard that closes p when it is collected.
func NewGuard(p *Pool) *Guard {
	g := &Guard{p}
	runtime.SetFinalizer(g, func(g *Guard) { g.p.Close() })
	return g
}
