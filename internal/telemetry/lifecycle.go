package telemetry

// Function lifecycle instrumentation. Registration and deregistration are
// control-plane events, not hot-path samples: they happen behind the
// producers' minute barriers (the runtime's exclusive lock, the engine's
// per-minute lifecycle step), orders of magnitude less often than
// invocations. They are therefore an *optional* observer extension rather
// than part of Observer itself — existing observers keep compiling, and
// producers type-assert at the emission site.

// RegisterSample reports that a function slot came into existence. Function
// is the dense slot index the rest of the sample stream will use; Family is
// the model-family index the function was assigned.
type RegisterSample struct {
	Minute   int
	Function int
	Name     string
	Family   int
}

// DeregisterSample reports that a function slot was retired. Minute is the
// last minute the function lived (the first minute with the slot absent is
// Minute+1) — both the cluster engine and the live runtime emit it that
// way, so minute-ledger observers account departures identically. The slot
// is never reused; later samples never reference it again.
type DeregisterSample struct {
	Minute   int
	Function int
	Name     string
}

// LifecycleObserver is the optional extension an Observer can implement to
// follow online function registration. Producers deliver lifecycle samples
// under the same barrier that serializes keep-alive and minute samples, so
// their order relative to those streams is deterministic.
type LifecycleObserver interface {
	ObserveRegister(RegisterSample)
	ObserveDeregister(DeregisterSample)
}

// ObserveLifecycle forwards a registration to obs if (and only if) it
// implements LifecycleObserver — the nil-safe emission helper producers use.
func ObserveLifecycle(obs Observer, s RegisterSample) {
	if lo, ok := obs.(LifecycleObserver); ok {
		lo.ObserveRegister(s)
	}
}

// ObserveLifecycleEnd forwards a deregistration like ObserveLifecycle.
func ObserveLifecycleEnd(obs Observer, s DeregisterSample) {
	if lo, ok := obs.(LifecycleObserver); ok {
		lo.ObserveDeregister(s)
	}
}

// ObserveRegister implements LifecycleObserver.
func (Nop) ObserveRegister(RegisterSample) {}

// ObserveDeregister implements LifecycleObserver.
func (Nop) ObserveDeregister(DeregisterSample) {}

// ObserveRegister implements LifecycleObserver.
func (r *Recorder) ObserveRegister(s RegisterSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Registers = append(r.Registers, s)
}

// ObserveDeregister implements LifecycleObserver.
func (r *Recorder) ObserveDeregister(s DeregisterSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Deregisters = append(r.Deregisters, s)
}

// ObserveRegister implements LifecycleObserver: the fan-out forwards to the
// children that understand lifecycle events and skips the rest.
func (m multi) ObserveRegister(s RegisterSample) {
	for _, o := range m {
		if lo, ok := o.(LifecycleObserver); ok {
			lo.ObserveRegister(s)
		}
	}
}

// ObserveDeregister implements LifecycleObserver.
func (m multi) ObserveDeregister(s DeregisterSample) {
	for _, o := range m {
		if lo, ok := o.(LifecycleObserver); ok {
			lo.ObserveDeregister(s)
		}
	}
}

// ObserveRegister implements LifecycleObserver: registrations are counted
// and logged with the function's name.
func (t *Telemetry) ObserveRegister(s RegisterSample) {
	t.mu.Lock()
	t.registers++
	t.mu.Unlock()
	t.log.Append(Event{
		Minute:   s.Minute,
		Kind:     KindRegister,
		Function: s.Function,
		Name:     s.Name,
	})
}

// ObserveDeregister implements LifecycleObserver: the retired slot's
// keep-alive gauge is zeroed so the exposition never shows memory for a
// function that no longer exists.
func (t *Telemetry) ObserveDeregister(s DeregisterSample) {
	t.mu.Lock()
	t.deregisters++
	if c, i := t.at(s.Function, false); c != nil {
		c.held[i].name = 0
	}
	t.mu.Unlock()
	t.log.Append(Event{
		Minute:   s.Minute,
		Kind:     KindDeregister,
		Function: s.Function,
		Name:     s.Name,
	})
}

var (
	_ LifecycleObserver = Nop{}
	_ LifecycleObserver = (*Recorder)(nil)
	_ LifecycleObserver = (*Telemetry)(nil)
	_ LifecycleObserver = multi(nil)
)
