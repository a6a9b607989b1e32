package core

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/cluster"
)

// Online function lifecycle for the controller. Slots follow the identity
// registry's append-only model: registering a function grows every
// per-function structure (history arena, plan store, decision and
// probability buffers, priority count) by one fresh slot; deregistering
// tombstones the slot in place AND releases its heavy backing state — the
// plan row returns to the free list, the history's spill and local-queue
// heap storage is dropped, and the slot leaves the active set. What remains
// is the cheap identity tombstone: a few fixed-width arena cells per slot.
// Tombstoned slots behave exactly like never-invoked functions — rowless,
// so the KeepAlive gather yields NoVariant, and the global optimizer never
// sees them as downgrade candidates. That construction is what keeps the
// static (churn-free) decision path bit-identical to the pre-lifecycle
// controller while bounding steady-state heap under churn.
//
// Both methods must be called between minutes, under the same external
// serialization as KeepAlive and RecordInvocations (the cluster engine's
// lifecycle step, the live runtime's exclusive barrier).

// RegisterFunction implements cluster.DynamicPolicy: the named function
// gets the next slot with an empty inter-arrival history and no plan, so it
// stays cold until its first recorded invocations — the paper's behaviour
// for a function the controller has never seen. The shard ranges are
// re-partitioned over the grown slot count (resolveShards).
func (p *Pulse) RegisterFunction(name string, family int) (int, error) {
	if family < 0 || family >= len(p.cfg.Catalog.Families) {
		return 0, fmt.Errorf("core: family %d out of range for %q", family, name)
	}
	slot, err := p.reg.Register(name)
	if err != nil {
		return 0, err
	}
	p.cfg.Assignment = append(p.cfg.Assignment, family)
	p.cfg.Names = append(p.cfg.Names, name)
	p.hist.grow()
	p.plans.grow()
	p.active.grow()
	p.out = append(p.out, cluster.NoVariant)
	p.ip = append(p.ip, 0)
	p.global.grow(family)
	p.resolveShards()
	return slot, nil
}

// DeregisterFunction implements cluster.DynamicPolicy: the named function's
// slot is tombstoned and its heavy backing state released — the plan row
// returns to the free list, the slot leaves the active set, its decision is
// pinned to NoVariant, its history's heap storage (spill lists, local gap
// queue) is freed, and its downgrade priority count zeroed. The slot count
// does not change, so the shard partition stays as is.
func (p *Pulse) DeregisterFunction(name string) error {
	slot, err := p.reg.Deregister(name)
	if err != nil {
		return err
	}
	p.active.remove(slot)
	p.plans.releaseRow(slot)
	p.out[slot] = cluster.NoVariant
	p.ip[slot] = 0
	p.hist.release(slot)
	p.global.retire(slot)
	return nil
}

var _ cluster.DynamicPolicy = (*Pulse)(nil)
