package cluster

import (
	"fmt"
	"time"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// This file is the lifecycle-aware engine path: when the trace carries
// function churn (trace.Trace.HasChurn), Run dispatches here. The churn
// engine is serial, like the static one: its value is a deterministic,
// auditable event stream.
//
// The slot model mirrors the identity registry everywhere else in the
// stack: the engine and the policy agree on dense, append-only function
// slots. Slots 0..k-1 are the trace functions live at minute 0, in trace
// order (InitialPopulation); each later arrival gets the next slot, in
// trace order within its minute; a departure tombstones its slot forever.
// Each minute proceeds lifecycle → KeepAlive → accounting → serve →
// RecordInvocations, the exact order the live runtime replays, so
// attribution reports from both paths are comparable sample for sample.

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

// churnSlot is the engine's view of one issued function slot.
type churnSlot struct {
	traceIdx int  // index into cfg.Trace.Functions
	fam      int  // family index (frozen at registration)
	live     bool // false once tombstoned
}

// runChurn replays a churn trace against a DynamicPolicy.
func runChurn(cfg Config, p Policy) (*Result, error) {
	dp, ok := p.(DynamicPolicy)
	if !ok {
		return nil, fmt.Errorf("cluster: trace has function churn but policy %q does not support online registration", p.Name())
	}
	tr := cfg.Trace
	res := &Result{
		Policy:           p.Name(),
		Horizon:          tr.Horizon,
		PerMinuteKaMMB:   make([]float64, tr.Horizon),
		PerMinuteCostUSD: make([]float64, tr.Horizon),
	}

	var slots []churnSlot
	var counts []int

	// Idle-skip (see Run): an ActiveSetPolicy's accounting visits only the
	// slots that can hold a decision or owe a release sample, and the record
	// fan-in hands the policy the minute's ascending invoked list. The
	// tombstone cross-check still runs for every slot that decides a variant.
	asp, sparse := p.(ActiveSetPolicy)
	var invoked []int32
	var walk HolderWalk
	famOf := func(fn int) (int, bool) { return slots[fn].fam, slots[fn].live }
	register := func(t, ti int) error {
		name := tr.Functions[ti].Name
		fam := cfg.Assignment[ti]
		slot, err := dp.RegisterFunction(name, fam)
		if err != nil {
			return fmt.Errorf("cluster: registering %q at minute %d: %w", name, t, err)
		}
		if slot != len(slots) {
			return fmt.Errorf("cluster: policy %q issued slot %d for %q at minute %d, engine expected %d",
				p.Name(), slot, name, t, len(slots))
		}
		slots = append(slots, churnSlot{traceIdx: ti, fam: fam, live: true})
		counts = append(counts, 0)
		if cfg.Observer != nil {
			telemetry.ObserveLifecycle(cfg.Observer, telemetry.RegisterSample{
				Minute: t, Function: slot, Name: name, Family: fam,
			})
		}
		return nil
	}

	// The policy was constructed with the minute-0 population
	// (InitialPopulation): mirror those slots without re-registering.
	for ti := range tr.Functions {
		if tr.Functions[ti].Start == 0 {
			slots = append(slots, churnSlot{traceIdx: ti, fam: cfg.Assignment[ti], live: true})
			counts = append(counts, 0)
		}
	}

	for t := 0; t < tr.Horizon; t++ {
		// Lifecycle barrier: departures first, then arrivals, each in slot /
		// trace order — the order the runtime replay uses between minutes.
		for si := range slots {
			s := &slots[si]
			if !s.live || tr.Functions[s.traceIdx].EndMinute(tr.Horizon) != t {
				continue
			}
			name := tr.Functions[s.traceIdx].Name
			if err := dp.DeregisterFunction(name); err != nil {
				return nil, fmt.Errorf("cluster: deregistering %q at minute %d: %w", name, t, err)
			}
			s.live = false
			if cfg.Observer != nil {
				// The sample carries the function's last lived minute (t-1,
				// like the live runtime's Deregister does), so observers that
				// fold departures into their minute ledgers — the attribution
				// accountant — see both feeds identically even when several
				// functions depart in the same minute.
				telemetry.ObserveLifecycleEnd(cfg.Observer, telemetry.DeregisterSample{
					Minute: t - 1, Function: si, Name: name,
				})
			}
		}
		if t > 0 {
			for ti := range tr.Functions {
				if tr.Functions[ti].Start == t {
					if err := register(t, ti); err != nil {
						return nil, err
					}
				}
			}
		}

		var start time.Time
		if cfg.MeasureOverhead {
			start = time.Now()
		}
		alive := p.KeepAlive(t)
		if cfg.MeasureOverhead {
			res.PolicyOverheadSec += time.Since(start).Seconds()
			res.PolicyCalls++
		}
		if len(alive) != len(slots) {
			return nil, fmt.Errorf("cluster: policy %q returned %d decisions for %d slots at minute %d",
				p.Name(), len(alive), len(slots), t)
		}

		// Keep-alive accounting. Tombstoned slots must decide NoVariant; a
		// slot deregistered while holding a variant still gets its release
		// sample this minute (the contract is a function of the decision
		// vectors alone), after which it rests like any idle slot.
		kamMB, costUSD, err := accountKeepAlive(&cfg, p, &walk, t, alive, famOf)
		if err != nil {
			return nil, err
		}
		res.PerMinuteKaMMB[t] = kamMB
		res.PerMinuteCostUSD[t] = costUSD
		res.KeepAliveCostUSD += costUSD
		if cfg.Observer != nil {
			cfg.Observer.ObserveMinute(telemetry.MinuteSample{Minute: t, KeepAliveMB: kamMB, CostUSD: costUSD})
		}

		// Serve this minute's invocations.
		invoked = invoked[:0]
		for fn := range slots {
			s := &slots[fn]
			c := 0
			if s.live {
				c = tr.Functions[s.traceIdx].Counts[t]
			}
			counts[fn] = c
			if c == 0 {
				continue
			}
			if sparse {
				invoked = append(invoked, int32(fn))
			}
			if err := serveFunction(&cfg, p, res, t, fn, c, alive[fn], s.fam); err != nil {
				return nil, err
			}
		}

		if cfg.MeasureOverhead {
			start = time.Now()
		}
		if sparse {
			asp.RecordInvocationsSparse(t, counts, invoked)
		} else {
			p.RecordInvocations(t, counts)
		}
		if cfg.MeasureOverhead {
			res.PolicyOverheadSec += time.Since(start).Seconds()
		}
	}
	return res, nil
}
