package attribution

// Deregistration: retiring a function closes its ledgers — the live
// policy's and every entrant's — where they stand. The slot's counts stop
// moving and pricing is a function of the counts alone, so the retired
// function reads the same at retirement and at every later report, and
// retiring one allocates nothing.

import (
	"reflect"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

func TestDeregisterFoldPreservesReport(t *testing.T) {
	cat := testCatalog(t)
	asg := uniform(cat, 4)
	acct := newAccountant(t, Config{Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel()})

	minute := func(m int) {
		for fn := 0; fn < 4; fn++ {
			fam := cat.Families[asg[fn]]
			acct.ObserveKeepAlive(telemetry.KeepAliveSample{
				Minute: m, Function: fn, Variant: (fn + m) % len(fam.Variants),
			})
			if (fn+m)%3 != 0 {
				acct.ObserveInvocation(telemetry.InvocationSample{
					Minute: m, Function: fn,
					Variant: fam.Variants[m%len(fam.Variants)].Name,
					Cold:    m == 0, Count: 1 + fn,
				})
			}
		}
		acct.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
	for m := 0; m < 12; m++ {
		minute(m)
	}

	before := acct.Report()
	acct.ObserveDeregister(telemetry.DeregisterSample{Minute: 11, Function: 1})
	after := acct.Report()
	if !reflect.DeepEqual(before.Functions[1], after.Functions[1]) {
		t.Errorf("retiring changed the function's report:\nbefore %+v\nafter  %+v",
			before.Functions[1], after.Functions[1])
	}
	if !reflect.DeepEqual(before.Total, after.Total) {
		t.Errorf("retiring changed the total report")
	}

	// A second deregister sample for the same slot must be a no-op, and
	// every later sample naming the retired slot — the foreign-feed keep-
	// alives and invocations the minutes below send it — must be dropped,
	// not attributed: fifty minutes on, its report is the one it retired
	// with.
	acct.ObserveDeregister(telemetry.DeregisterSample{Minute: 11, Function: 1})
	for m := 12; m < 62; m++ {
		minute(m)
	}
	later := acct.Report()
	if !reflect.DeepEqual(after.Functions[1], later.Functions[1]) {
		t.Errorf("the retired function's report moved in the 50 minutes after retirement:\nat retirement %+v\n50 min later  %+v",
			after.Functions[1], later.Functions[1])
	}
	if reflect.DeepEqual(after.Functions[0], later.Functions[0]) {
		t.Error("a live function's report did not move either; the minutes above fed nothing")
	}
}

// Retiring a slot allocates nothing: its ledger rows stay where they are,
// and the entrants' Retire calls reset fixed-size state.
func TestDeregisterDoesNotAllocate(t *testing.T) {
	cat := testCatalog(t)
	const slots = 64
	asg := uniform(cat, slots)
	acct := newAccountant(t, Config{Catalog: cat, Assignment: asg, Entrants: rosterEntrants(t, cat)})
	for m := 0; m < 5; m++ {
		for fn := 0; fn < slots; fn++ {
			acct.ObserveInvocation(telemetry.InvocationSample{
				Minute: m, Function: fn, Variant: cat.Families[asg[fn]].Variants[0].Name, Count: 1,
			})
		}
		acct.ObserveMinute(telemetry.MinuteSample{Minute: m})
	}
	victim := slots
	if avg := testing.AllocsPerRun(slots-1, func() {
		victim--
		acct.ObserveDeregister(telemetry.DeregisterSample{Minute: 5, Function: victim})
	}); avg != 0 {
		t.Errorf("ObserveDeregister allocates %v times, want 0", avg)
	}
}
