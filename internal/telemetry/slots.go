package telemetry

import (
	"strconv"
	"sync/atomic"
)

// The slot table: every per-function series Telemetry feeds, resolved once
// and found again by indexing with the sample's dense function slot. Chunks
// never move, so a *fnSeries stays valid for the life of the Telemetry; the
// directory is an immutable snapshot replaced copy-on-write (once per
// chunkSlots slots), and both levels are read with atomic loads.

const (
	chunkSlots = 512 // function slots per chunk
	// maxSlots bounds the table: a sample naming a slot at or past it (or a
	// negative one) comes from a foreign feed and is dropped, not grown for.
	maxSlots = 1 << 26
)

type slotChunk [chunkSlots]atomic.Pointer[fnSeries]

// fnSeries is one function slot's resolved series.
type fnSeries struct {
	label string // the "function" label value, made once

	// inv serves the invocation stream, which arrives from many goroutines
	// at once: an immutable set, replaced copy-on-write under Telemetry.mu
	// when a series is first touched.
	inv atomic.Pointer[invSeries]

	// dg and sch: racing first touches resolve the same series (family.with
	// is idempotent), so a plain atomic store suffices.
	dg, sch atomic.Pointer[series]

	// Keep-alive state, guarded by Telemetry.mu: held is the gauge now
	// holding memory (zero at rest) and heldBits the value it holds, inline so
	// an unchanged holder is recognized without touching a series; ka is
	// every gauge the function ever resolved.
	held     kaSeries
	heldBits uint64
	ka       []kaSeries
}

// invSeries is a function's invocation counters by variant × start kind and
// its service-time histogram. variants aliases buf while it fits: the usual
// one- or two-variant function is one allocation deep.
type invSeries struct {
	svc      *series
	variants []invVariant
	buf      [2]invVariant
}

type invVariant struct {
	name  string
	start [2]*series // warm, cold; nil until first touched
}

type kaSeries struct {
	variant string
	gauge   *series
}

var startLabel = [2]string{"warm", "cold"}

// lookup returns fn's series, nil when no sample has touched the slot.
func (t *Telemetry) lookup(fn int) *fnSeries {
	if uint(fn) >= maxSlots {
		return nil
	}
	dir := *t.dir.Load()
	if ci := fn / chunkSlots; ci < len(dir) && dir[ci] != nil {
		return dir[ci][fn%chunkSlots].Load()
	}
	return nil
}

// slot returns fn's series, making the slot on first touch; nil for a slot
// outside [0, maxSlots).
func (t *Telemetry) slot(fn int) *fnSeries {
	if fs := t.lookup(fn); fs != nil || uint(fn) >= maxSlots {
		return fs
	}
	ci := fn / chunkSlots
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := *t.dir.Load()
	if ci >= len(dir) || dir[ci] == nil {
		grown := make([]*slotChunk, max(len(dir), ci+1))
		copy(grown, dir)
		grown[ci] = new(slotChunk)
		t.dir.Store(&grown)
		dir = grown
	}
	at := &dir[ci][fn%chunkSlots]
	fs := at.Load()
	if fs == nil {
		fs = &fnSeries{label: strconv.Itoa(fn)}
		at.Store(fs)
	}
	return fs
}

// invocationSeries resolves the counter for (variant, start kind) and the
// service histogram on their first touch and publishes a new handle set. The
// registry calls come first, outside every lock a sample takes: a series
// creation can wait behind a scrape and must not make other samples wait too.
func (t *Telemetry) invocationSeries(fs *fnSeries, variant string, cold int) (counter, svc *series) {
	counter = t.invocations.f.fresh([]string{fs.label, variant, startLabel[cold]})
	svc = t.service.f.fresh([]string{fs.label})
	t.mu.Lock()
	defer t.mu.Unlock()
	next := &invSeries{svc: svc}
	next.variants = next.buf[:0]
	if old := fs.inv.Load(); old != nil {
		next.variants = append(next.variants, old.variants...)
	}
	i := 0
	for i < len(next.variants) && next.variants[i].name != variant {
		i++
	}
	if i == len(next.variants) {
		next.variants = append(next.variants, invVariant{name: variant})
	}
	next.variants[i].start[cold] = counter
	fs.inv.Store(next)
	return counter, svc
}

// counter returns the per-function counter cached at p, resolving it from
// vec on first touch.
func (fs *fnSeries) counter(p *atomic.Pointer[series], vec *CounterVec) *series {
	c := p.Load()
	if c == nil {
		c = vec.f.fresh([]string{fs.label})
		p.Store(c)
	}
	return c
}
