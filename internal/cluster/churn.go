package cluster

import (
	"fmt"
	"slices"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// This file is the engine's function lifecycle: the slot table and the
// per-minute arrivals and departures Run's one minute loop replays. Only a
// trace with function churn (trace.Trace.HasChurn) schedules any, and only
// it requires a DynamicPolicy. The engine is serial: its value is a
// deterministic, auditable event stream.
//
// The slot model mirrors the identity registry everywhere else in the
// stack: the engine and the policy agree on dense, append-only function
// slots. Slots 0..k-1 are the trace functions live at minute 0, in trace
// order (InitialPopulation); each later arrival gets the next slot, in
// trace order within its minute; a departure tombstones its slot forever.

// DynamicPolicy is a Policy that supports online function registration and
// deregistration. RegisterFunction must issue dense append-only slots (the
// next unused index) and must give a fresh function cold-history behaviour:
// no keep-alive plan until its first invocations are recorded.
// DeregisterFunction tombstones the named function's slot; subsequent
// KeepAlive calls must return NoVariant for it.
type DynamicPolicy interface {
	Policy
	RegisterFunction(name string, family int) (int, error)
	DeregisterFunction(name string) error
}

// InitialPopulation returns the names and family assignment of the
// functions live at minute 0 of a churn trace, in trace order — the
// population a DynamicPolicy must be constructed with before Run replays
// the trace. asg is indexed by trace function, like Config.Assignment.
func InitialPopulation(tr *trace.Trace, asg models.Assignment) ([]string, models.Assignment, error) {
	if len(asg) != len(tr.Functions) {
		return nil, nil, fmt.Errorf("cluster: assignment covers %d functions, trace has %d", len(asg), len(tr.Functions))
	}
	var names []string
	var initial models.Assignment
	for i := range tr.Functions {
		if tr.Functions[i].Start == 0 {
			names = append(names, tr.Functions[i].Name)
			initial = append(initial, asg[i])
		}
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("cluster: no functions live at minute 0")
	}
	return names, initial, nil
}

// churnSlot is the engine's view of one function slot.
type churnSlot struct {
	fn   *trace.Function
	fam  int  // family index (frozen at registration)
	live bool // false once tombstoned
}

// lifecycle is a run's slot table and its lifecycle schedule, built once:
// every slot the trace will issue, in slot order, so each minute's arrivals
// are the next run of unissued slots, and per minute the slots departing at
// it. A minute's lifecycle step touches only the slots that arrive or
// depart in it, and a static trace has no schedule at all.
type lifecycle struct {
	dp      DynamicPolicy // nil unless the trace has churn
	obs     telemetry.Observer
	slots   []churnSlot
	issued  int       // slots [0, issued) are registered
	departs [][]int32 // per minute, the slots departing at it, ascending
}

// newLifecycle builds p's schedule for cfg.Trace. The policy was constructed
// with the minute-0 population (InitialPopulation), so those slots are
// mirrored as issued without registering them.
func newLifecycle(cfg *Config, p Policy) (*lifecycle, error) {
	tr := cfg.Trace
	lc := &lifecycle{obs: cfg.Observer}
	for ti := range tr.Functions {
		f := &tr.Functions[ti]
		lc.slots = append(lc.slots, churnSlot{fn: f, fam: cfg.Assignment[ti], live: true})
		if f.Start == 0 {
			lc.issued++
		}
	}
	if !tr.HasChurn() {
		return lc, nil
	}
	dp, ok := p.(DynamicPolicy)
	if !ok {
		return nil, fmt.Errorf("cluster: trace has function churn but policy %q does not support online registration", p.Name())
	}
	lc.dp = dp
	slices.SortStableFunc(lc.slots, func(a, b churnSlot) int { return a.fn.Start - b.fn.Start })
	lc.departs = make([][]int32, tr.Horizon)
	for si, s := range lc.slots {
		if end := s.fn.EndMinute(tr.Horizon); end < tr.Horizon {
			lc.departs[end] = append(lc.departs[end], int32(si))
		}
	}
	return lc, nil
}

// step is minute t's lifecycle barrier: departures first, then arrivals,
// each in slot order — the order the runtime replay uses between minutes.
func (lc *lifecycle) step(t int) error {
	if lc.dp == nil {
		return nil
	}
	for _, si := range lc.departs[t] {
		s := &lc.slots[si]
		if err := lc.dp.DeregisterFunction(s.fn.Name); err != nil {
			return fmt.Errorf("cluster: deregistering %q at minute %d: %w", s.fn.Name, t, err)
		}
		s.live = false
		if lc.obs != nil {
			// The sample carries the function's last lived minute (t-1, like
			// the live runtime's Deregister does), so observers that fold
			// departures into their minute ledgers — the attribution
			// accountant — see both feeds identically even when several
			// functions depart in the same minute.
			telemetry.ObserveLifecycleEnd(lc.obs, telemetry.DeregisterSample{Minute: t - 1, Function: int(si), Name: s.fn.Name})
		}
	}
	for ; lc.issued < len(lc.slots) && lc.slots[lc.issued].fn.Start == t; lc.issued++ {
		s := &lc.slots[lc.issued]
		slot, err := lc.dp.RegisterFunction(s.fn.Name, s.fam)
		if err != nil {
			return fmt.Errorf("cluster: registering %q at minute %d: %w", s.fn.Name, t, err)
		}
		if slot != lc.issued {
			return fmt.Errorf("cluster: policy %q issued slot %d for %q at minute %d, engine expected %d",
				lc.dp.Name(), slot, s.fn.Name, t, lc.issued)
		}
		if lc.obs != nil {
			telemetry.ObserveLifecycle(lc.obs, telemetry.RegisterSample{Minute: t, Function: slot, Name: s.fn.Name, Family: s.fam})
		}
	}
	return nil
}
