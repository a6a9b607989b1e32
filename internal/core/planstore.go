package core

import (
	"slices"

	"github.com/pulse-serverless/pulse/internal/cluster"
)

// planStore replaces the per-function planRing heap objects with flat
// slot-indexed slabs plus a free list of plan rows. A row is the window+1
// minute ring a planRing used to own; rows are acquired only when a
// function is invoked (and so gets a plan) and released when the plan
// drains past its last covered minute or the function deregisters. A slot
// without a row costs 12 bytes; the heavy ring storage is shared by the
// functions that are actually active — which is what makes the controller's
// footprint proportional to active functions, not registered ones.
//
// Concurrency discipline: rows are acquired and released ONLY by the
// coordinator between shard barriers (prepareRows, compact, lifecycle), so
// the free list needs no locking. During a barrier, shard workers write
// ring values through set for rows the coordinator pre-acquired; each
// worker touches only its own slots' rows, so no ring cell is ever shared.
type planStore struct {
	stride int     // ring cells per row: window+1 minutes
	row    []int32 // slot → row handle, -1 when the slot holds no plan
	expiry []int   // slot → last minute the plan covers (valid when row ≥ 0)
	free   []int32 // released row handles, reused before the slabs grow

	minutes  []int // rows × stride; -1 marks an empty cell
	variants []int16
	probs    []float64
}

func newPlanStore(window, n int) *planStore {
	ps := &planStore{
		stride: window + 1,
		row:    make([]int32, n),
		expiry: make([]int, n),
	}
	for i := range ps.row {
		ps.row[i] = -1
	}
	return ps
}

// grow appends one fresh (rowless) slot.
func (ps *planStore) grow() {
	ps.row = append(ps.row, -1)
	ps.expiry = append(ps.expiry, 0)
}

// hasRow reports whether slot fn currently holds a plan row.
func (ps *planStore) hasRow(fn int) bool { return ps.row[fn] >= 0 }

// ensureRow gives slot fn a cleared plan row, reusing a released one when
// available. Coordinator-only.
func (ps *planStore) ensureRow(fn int) {
	if ps.row[fn] >= 0 {
		return
	}
	var r int32
	if n := len(ps.free); n > 0 {
		r = ps.free[n-1]
		ps.free = ps.free[:n-1]
	} else {
		r = int32(len(ps.minutes) / ps.stride)
		ps.minutes = append(ps.minutes, make([]int, ps.stride)...)
		ps.variants = append(ps.variants, make([]int16, ps.stride)...)
		ps.probs = append(ps.probs, make([]float64, ps.stride)...)
		for i := int(r) * ps.stride; i < len(ps.minutes); i++ {
			ps.minutes[i] = -1
		}
	}
	ps.row[fn] = r
}

// releaseRow clears slot fn's plan row and returns it to the free list.
// Coordinator-only; a no-op for rowless slots.
func (ps *planStore) releaseRow(fn int) {
	r := ps.row[fn]
	if r < 0 {
		return
	}
	base := int(r) * ps.stride
	for i := base; i < base+ps.stride; i++ {
		ps.minutes[i] = -1
	}
	ps.row[fn] = -1
	ps.expiry[fn] = 0
	ps.free = append(ps.free, r)
}

// set stores the plan cell for an absolute minute. The slot must hold a
// row (the coordinator pre-acquires rows before fan-out).
func (ps *planStore) set(fn, minute, variant int, prob float64) {
	i := int(ps.row[fn])*ps.stride + minute%ps.stride
	ps.minutes[i] = minute
	ps.variants[i] = int16(variant)
	ps.probs[i] = prob
}

// get returns the plan cell for an absolute minute; ok is false when the
// slot has no row or the ring cell belongs to a different minute — exactly
// planRing.get's semantics.
func (ps *planStore) get(fn, minute int) (variant int, prob float64, ok bool) {
	r := ps.row[fn]
	if r < 0 {
		return cluster.NoVariant, 0, false
	}
	i := int(r)*ps.stride + minute%ps.stride
	if ps.minutes[i] != minute {
		return cluster.NoVariant, 0, false
	}
	return int(ps.variants[i]), ps.probs[i], true
}

// activeSet is the incremental index of slots that currently hold a plan
// row — the only slots whose decision can ever be anything but NoVariant.
// The list is kept sorted ascending so every float accumulation that
// iterates it (keep-alive memory sums, Algorithm 2's candidate gather)
// visits functions in slot order — the order a walk over every slot would
// take — whatever order they became active in.
type activeSet struct {
	list   []int32
	member []bool
}

func newActiveSet(n int) *activeSet {
	return &activeSet{member: make([]bool, n)}
}

func (as *activeSet) grow() { as.member = append(as.member, false) }

// add marks fn active. The caller re-sorts after a batch of adds.
func (as *activeSet) add(fn int) bool {
	if as.member[fn] {
		return false
	}
	as.member[fn] = true
	as.list = append(as.list, int32(fn))
	return true
}

// sort restores ascending order after a batch of adds.
func (as *activeSet) sort() { slices.Sort(as.list) }

// remove drops fn from the set (O(len), lifecycle-only).
func (as *activeSet) remove(fn int) {
	if !as.member[fn] {
		return
	}
	as.member[fn] = false
	for i, v := range as.list {
		if int(v) == fn {
			as.list = append(as.list[:i], as.list[i+1:]...)
			return
		}
	}
}
