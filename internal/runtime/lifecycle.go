package runtime

import (
	"fmt"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// Online function lifecycle for the live runtime. Register and Deregister
// take the exclusive barrier and open a write window — the same discipline
// Step uses — so they are serialized against every invocation and every
// minute rollover in both serving modes. Inside the window no stripe
// mutex is held by anyone and no invocation body is in flight, which is
// what makes mutating the policy and growing the population safe. Opening
// it drains only the dirty chain (drainDirty), so a registration costs
// O(stripes touched this minute), not O(population); stripes
// themselves are heap-allocated and reached through a pointer slice, so
// growth appends a pointer and never moves a stripe out from under a
// lock-free reader holding the previous slice.
//
// The runtime delegates slot issuance to its policy first and mirrors the
// result in its own registry; a disagreement between the two is an invariant
// violation and surfaces as an error, never as silent skew.

// Register adds a new function served by the given model family and returns
// its slot. The policy must support online registration (implement
// cluster.DynamicPolicy — PULSE and every baseline in this repo do). The new
// function starts with no warm container and no learned state: its first
// invocations are cold by construction, the paper's rule for a function the
// controller has never seen.
func (r *Runtime) Register(name string, family int) (int, error) {
	r.barrier.Lock()
	defer r.barrier.Unlock()
	if r.closed.Load() {
		return 0, ErrClosed
	}
	dp, ok := r.cfg.Policy.(cluster.DynamicPolicy)
	if !ok {
		return 0, fmt.Errorf("runtime: policy %q does not support online registration", r.cfg.Policy.Name())
	}
	if family < 0 || family >= len(r.cfg.Catalog.Families) {
		return 0, fmt.Errorf("runtime: family %d out of range for %q", family, name)
	}
	// The window must open before the policy call: ColdVariant from a
	// concurrent invocation may read the arrays RegisterFunction grows.
	r.beginWrite()
	defer r.endWrite()
	slot, err := dp.RegisterFunction(name, family)
	if err != nil {
		return 0, err
	}
	mirror, err := r.reg.Register(name)
	if err != nil {
		// The policy accepted the name but the runtime's mirror did not:
		// the two populations were out of sync at construction.
		return 0, fmt.Errorf("runtime: registry out of sync with policy: %w", err)
	}
	if mirror != slot {
		return 0, fmt.Errorf("runtime: policy issued slot %d for %q, runtime expected %d", slot, name, mirror)
	}
	r.cfg.Assignment = append(r.cfg.Assignment, family)
	r.cfg.Names = append(r.cfg.Names, name)
	r.addSlot(family, name)
	fns := r.fns
	r.fnsA.Store(&fns)
	r.countsBuf = append(r.countsBuf, 0)
	if r.obs != nil {
		telemetry.ObserveLifecycle(r.obs, telemetry.RegisterSample{
			Minute:   r.minute,
			Function: slot,
			Name:     name,
			Family:   family,
		})
	}
	return slot, nil
}

// Deregister retires the named function: its slot is tombstoned in the
// policy and the runtime, any warm container is torn down, and subsequent
// Invokes of the slot return ErrDeregistered. Its invocations, the open
// minute's included, remain part of Stats. The slot is never reused; a later
// Register of the same name gets a fresh slot with cold state.
func (r *Runtime) Deregister(name string) error {
	r.barrier.Lock()
	defer r.barrier.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	dp, ok := r.cfg.Policy.(cluster.DynamicPolicy)
	if !ok {
		return fmt.Errorf("runtime: policy %q does not support online deregistration", r.cfg.Policy.Name())
	}
	slot, ok := r.reg.Slot(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownFunction, name)
	}
	r.beginWrite()
	defer r.endWrite()
	if err := dp.DeregisterFunction(name); err != nil {
		return err
	}
	if _, err := r.reg.Deregister(name); err != nil {
		return fmt.Errorf("runtime: registry out of sync with policy: %w", err)
	}
	st := r.fns[slot]
	// The slot's open minute closes now — into the ledger and to observers,
	// before the sample that closes theirs; the harvest and Stats skip
	// inactive slots.
	if st.count > 0 {
		r.closeServed(st, slot, st.count)
	}
	st.active = false
	st.alive = cluster.NoVariant
	st.coldPod = cluster.NoVariant
	if r.obs != nil {
		telemetry.ObserveLifecycleEnd(r.obs, telemetry.DeregisterSample{
			Minute:   r.minute,
			Function: slot,
			Name:     name,
		})
	}
	return nil
}
