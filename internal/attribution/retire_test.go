package attribution

// Deregistration pricing: retiring a function prices each of its ledgers
// once — by the same Ledger.Price the report path uses, so the retired
// report is bit-identical to the live one — and then drops the ledger
// slices, leaving the retired slot a constant-size tombstone no matter how
// many variants its family had.

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

	for m := 0; m < 12; m++ {
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

	before := acct.Report()
	acct.ObserveDeregister(telemetry.DeregisterSample{Minute: 11, Function: 1})
	after := acct.Report()
	if !reflect.DeepEqual(before.Functions[1], after.Functions[1]) {
		t.Errorf("folding changed the retired function's report:\nbefore %+v\nafter  %+v",
			before.Functions[1], after.Functions[1])
	}
	if !reflect.DeepEqual(before.Total, after.Total) {
		t.Errorf("folding changed the total report")
	}
	if !acct.Arena().LedgersReleased(1) {
		t.Error("retired slot still holds per-variant ledgers")
	}

	// A second deregister sample for the same slot must be a no-op, and
	// foreign-feed samples for the retired slot must be dropped, not
	// attributed or crash on the released ledgers.
	acct.ObserveDeregister(telemetry.DeregisterSample{Minute: 11, Function: 1})
	acct.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: 11, Function: 1, Variant: 0})
	acct.ObserveInvocation(telemetry.InvocationSample{
		Minute: 11, Function: 1, Variant: cat.Families[asg[1]].Variants[0].Name, Count: 3,
	})
	again := acct.Report()
	if !reflect.DeepEqual(after.Functions[1], again.Functions[1]) {
		t.Error("post-retirement samples changed the retired function's account")
	}
}
