package runtime

import (
	"reflect"
	"slices"
	"testing"

	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/policy"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// The simulated engine and the live runtime must produce identical
// attribution from the same trace: one accountant observes a cluster.Run,
// another observes a Runtime replaying the same invocations minute by
// minute, and the two reports (and every time series) must be deeply
// equal. This is the acceptance criterion that offline (sim) and online
// (pulsed) savings numbers agree by construction — both feeds reduce to
// the same integer counters, and all pricing happens at Report() in a
// fixed order.
func TestRoundTripSimVersusLiveRuntime(t *testing.T) {
	cat := models.PaperCatalog()
	tr, err := trace.Generate(trace.GeneratorConfig{Seed: 7, Horizon: 6 * 60})
	if err != nil {
		t.Fatal(err)
	}
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	cost := cluster.DefaultCostModel()
	// The live replay closes every trace minute, since an open minute reaches
	// no observer; the engine runs one idle minute more, so both end with the
	// same minute open.
	sim := *tr
	sim.Horizon++
	sim.Functions = slices.Clone(tr.Functions)
	for i := range sim.Functions {
		sim.Functions[i].Counts = append(slices.Clone(tr.Functions[i].Counts), 0)
	}
	newAcct := func() *attribution.Accountant {
		a, err := attribution.New(attribution.Config{Catalog: cat, Assignment: asg, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	policies := map[string]func() (cluster.Policy, error){
		"pulse": func() (cluster.Policy, error) {
			return core.New(core.Config{Catalog: cat, Assignment: asg})
		},
		"fixed-high": func() (cluster.Policy, error) {
			return policy.NewFixed(cat, asg, cluster.DefaultKeepAliveWindow, policy.QualityHighest)
		},
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			// Offline: the cluster engine drives the whole trace.
			simAcct := newAcct()
			p, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cluster.Run(cluster.Config{
				Trace: &sim, Catalog: cat, Assignment: asg, Cost: cost, Observer: simAcct,
			}, p); err != nil {
				t.Fatal(err)
			}

			// Online: a live runtime replays the identical invocation feed.
			// The trace has minutes 0..h-1; h Steps leave minute h open, like
			// the engine's idle last minute.
			liveAcct := newAcct()
			lp, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			rt, err := New(Config{
				Catalog:    cat,
				Assignment: asg,
				Policy:     lp,
				Clock:      &ManualClock{},
				Cost:       cost,
				Observer:   liveAcct,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			for m := 0; m < tr.Horizon; m++ {
				for fn := range tr.Functions {
					for i := 0; i < tr.Functions[fn].Counts[m]; i++ {
						if _, err := rt.Invoke(fn); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := rt.Step(); err != nil {
					t.Fatal(err)
				}
			}

			simRep, liveRep := simAcct.Report(), liveAcct.Report()
			if !reflect.DeepEqual(simRep, liveRep) {
				t.Errorf("sim and live attribution diverged\nsim total:  %+v\nlive total: %+v",
					simRep.Total, liveRep.Total)
			}
			for _, name := range attribution.MetricNames() {
				m, err := attribution.ParseMetric(name)
				if err != nil {
					t.Fatal(err)
				}
				sSim := simAcct.Series(m, sim.Horizon, false)
				sLive := liveAcct.Series(m, sim.Horizon, false)
				if !reflect.DeepEqual(sSim, sLive) {
					t.Errorf("series %s diverged between sim and live", name)
				}
			}
		})
	}
}
