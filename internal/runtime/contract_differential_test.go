package runtime

// Sparse KeepAlive contract differential: the sample stream is a pure
// function of the decision vectors — function f gets a sample in minute t
// iff it holds a variant in t or held one in t−1 — so every producer must
// emit the identical stream whichever walk it runs. The oracle is as dense
// as this repository gets: a controller whose active set is hidden from the
// engine (so the engine walks every slot and records densely), with every
// minute's decision vector logged; the expected stream is computed from
// those vectors by the rule, independently of any producer's bookkeeping.
// (That the controller's decisions themselves match an every-slot reference
// is internal/core's TestIdleSkipDifferential.) The active-set path —
// cluster engine and live runtime in both serving modes, controller shards
// {1,3}, under register/deregister churn — must then DeepEqual it. CI's
// 'Differential|Sharded' -race regex picks this suite up.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// denseOracle drives a controller through the plain Policy/DynamicPolicy
// surface only — no ActiveSetPolicy, so producers fall back to visiting
// every slot — and logs a copy of each minute's decision vector.
type denseOracle struct {
	p         *core.Pulse
	decisions [][]int
}

func (o *denseOracle) Name() string              { return o.p.Name() }
func (o *denseOracle) ColdVariant(t, fn int) int { return o.p.ColdVariant(t, fn) }
func (o *denseOracle) RecordInvocations(t int, counts []int) {
	o.p.RecordInvocations(t, counts)
}
func (o *denseOracle) RegisterFunction(name string, family int) (int, error) {
	return o.p.RegisterFunction(name, family)
}
func (o *denseOracle) DeregisterFunction(name string) error { return o.p.DeregisterFunction(name) }
func (o *denseOracle) KeepAlive(t int) []int {
	d := o.p.KeepAlive(t)
	o.decisions = append(o.decisions, append([]int(nil), d...))
	return d
}

var _ cluster.DynamicPolicy = (*denseOracle)(nil)

// contractStream derives the keep-alive samples the contract owes from the
// logged decision vectors. famOf maps a slot to its family index.
func contractStream(cat *models.Catalog, decisions [][]int, famOf []int) []telemetry.KeepAliveSample {
	var out []telemetry.KeepAliveSample
	for t, d := range decisions {
		for fn, vi := range d {
			if vi != cluster.NoVariant {
				v := cat.Families[famOf[fn]].Variants[vi]
				out = append(out, telemetry.KeepAliveSample{Minute: t, Function: fn, Variant: vi, VariantName: v.Name, MemMB: v.MemoryMB})
				continue
			}
			if t > 0 && fn < len(decisions[t-1]) && decisions[t-1][fn] != cluster.NoVariant {
				out = append(out, telemetry.KeepAliveSample{Minute: t, Function: fn, Variant: cluster.NoVariant})
			}
		}
	}
	return out
}

func TestDifferentialSparseContract(t *testing.T) {
	cat := models.PaperCatalog()
	tr := churnRuntimeWorkload(t)
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	names, initAsg, err := cluster.InitialPopulation(tr, asg)
	if err != nil {
		t.Fatal(err)
	}
	cost := cluster.DefaultCostModel()
	newPulse := func(obs telemetry.Observer, shards int) *core.Pulse {
		p, err := core.New(core.Config{
			Catalog: cat, Assignment: initAsg, Names: names, Observer: obs, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Oracle: dense engine walk and record, logged decisions.
			oracleRec := &telemetry.Recorder{}
			oracle := &denseOracle{p: newPulse(oracleRec, shards)}
			defer oracle.p.Close()
			if _, err := cluster.Run(cluster.Config{
				Trace: tr, Catalog: cat, Assignment: asg, Cost: cost, Observer: oracleRec,
			}, oracle); err != nil {
				t.Fatal(err)
			}
			famOf := append([]int(nil), initAsg...)
			for _, reg := range oracleRec.Registers {
				famOf = append(famOf, reg.Family)
			}
			want := contractStream(cat, oracle.decisions, famOf)

			// The oracle must be worth comparing against: holders, release
			// edges (some of them departures), and far fewer samples than a
			// dense one-per-slot-per-minute stream would carry.
			releases, dense := 0, 0
			for _, s := range want {
				if s.Variant == cluster.NoVariant {
					releases++
				}
			}
			for _, d := range oracle.decisions {
				dense += len(d)
			}
			if releases == 0 || len(want) == releases || len(oracleRec.Deregisters) == 0 || oracle.p.PeakMinutes() == 0 {
				t.Fatalf("oracle is trivial: %d samples, %d releases, %d departures, %d peak minutes",
					len(want), releases, len(oracleRec.Deregisters), oracle.p.PeakMinutes())
			}
			if len(want) >= dense {
				t.Fatalf("contract stream has %d samples, the dense stream %d: nothing is sparse", len(want), dense)
			}
			if !reflect.DeepEqual(oracleRec.KeepAlives, want) {
				t.Errorf("dense walk: %d keep-alive samples, the iff-rule over its own decisions owes %d", len(oracleRec.KeepAlives), len(want))
			}

			// The live replay differs from the engine in when it records, not
			// in what it decides: it leaves the final minute open (Horizon−1
			// Steps), and it retires a departing function before the Step that
			// would have recorded its last lived minute — so its schedule
			// stream is the oracle's minus exactly those samples.
			departed := map[[2]int]bool{}
			for _, d := range oracleRec.Deregisters {
				departed[[2]int{d.Minute, d.Function}] = true
			}
			check := func(name string, rec *telemetry.Recorder, live bool) {
				t.Helper()
				var schedules []telemetry.ScheduleSample
				for _, s := range oracleRec.Schedules {
					if live && (s.Minute == tr.Horizon-1 || departed[[2]int{s.Minute, s.Function}]) {
						continue
					}
					schedules = append(schedules, s)
				}
				for _, s := range []struct {
					kind      string
					got, want any
				}{
					{"keep-alives", rec.KeepAlives, want},
					{"schedules", rec.Schedules, schedules},
					{"peaks", rec.Peaks, oracleRec.Peaks},
					{"downgrades", rec.Downgrades, oracleRec.Downgrades},
				} {
					if !reflect.DeepEqual(s.got, s.want) {
						t.Errorf("%s: %s stream diverges from the dense oracle", name, s.kind)
					}
				}
			}

			// Active-set path, cluster engine.
			engineRec := &telemetry.Recorder{}
			enginePolicy := newPulse(engineRec, shards)
			defer enginePolicy.Close()
			if _, err := cluster.Run(cluster.Config{
				Trace: tr, Catalog: cat, Assignment: asg, Cost: cost, Observer: engineRec,
			}, enginePolicy); err != nil {
				t.Fatal(err)
			}
			check("engine", engineRec, false)

			// Active-set path, live runtime, every serving mode.
			for _, mode := range []string{ModeSerial, ModeEpoch} {
				rec := &telemetry.Recorder{}
				r, err := New(Config{
					Catalog:    cat,
					Assignment: initAsg,
					Names:      names,
					Policy:     newPulse(rec, shards),
					Clock:      NewManualClock(time.Unix(0, 0)),
					Observer:   rec,
					Mode:       mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				replayChurn(t, r, tr, false)
				r.Close()
				check("runtime-"+mode, rec, true)
			}
		})
	}
}
