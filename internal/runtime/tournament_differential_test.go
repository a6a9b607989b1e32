package runtime

// Tournament differential: the arena's fixed entrant-then-function
// accounting order makes every entrant's ledger and savings series a pure
// function of the invocation trace — invariant to the serving mode
// (serial, epoch), to the policy core's shard count, and to
// whether the stream came from the cluster engine or the live runtime's
// lifecycle path. CI's 'Differential|Sharded' -race regex picks this up,
// so the comparison doubles as a race check on the entrant feed.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
)

func TestDifferentialTournamentChurn(t *testing.T) {
	cat := models.PaperCatalog()
	tr := churnRuntimeWorkload(t)
	_, names, initAsg := churnRuntimePolicies(t, cat, tr)
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	cost := cluster.DefaultCostModel()

	newAcct := func() *attribution.Accountant {
		ents, err := roster.Build(roster.Names(), cat, cost)
		if err != nil {
			t.Fatal(err)
		}
		a, err := attribution.New(attribution.Config{
			Catalog: cat, Assignment: initAsg, Cost: cost, Entrants: ents,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	mkPolicy := func(shards int, obs telemetry.Observer) cluster.Policy {
		p, err := core.New(core.Config{
			Catalog: cat, Assignment: initAsg, Names: names, Observer: obs, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	savingsSeries := func(a *attribution.Accountant) map[string][]tournament.Point {
		out := make(map[string][]tournament.Point)
		for i, name := range a.EntrantNames() {
			sel := tournament.Selector{Entrant: i, Channel: tournament.ChanSavingsUSD}
			out[name] = a.Arena().Series(sel, tr.Horizon, false)
		}
		return out
	}

	var (
		baseLabel  string
		baseSnap   tournament.Snapshot
		baseSeries map[string][]tournament.Point
	)
	check := func(label string, a *attribution.Accountant) {
		snap := a.Arena().Snapshot()
		series := savingsSeries(a)
		if baseLabel == "" {
			baseLabel, baseSnap, baseSeries = label, snap, series
			if len(series) != attribution.NumBaselines+len(roster.Names()) {
				t.Fatalf("%s: %d entrant series, want %d", label, len(series), attribution.NumBaselines+len(roster.Names()))
			}
			return
		}
		if !reflect.DeepEqual(snap, baseSnap) {
			t.Errorf("%s: tournament snapshot diverges from %s\n%s total:  %+v\n%s total: %+v",
				label, baseLabel, baseLabel, baseSnap.Total, label, snap.Total)
		}
		for name, pts := range series {
			if !reflect.DeepEqual(pts, baseSeries[name]) {
				t.Errorf("%s: entrant %s savings series diverges from %s", label, name, baseLabel)
			}
		}
	}

	for _, shards := range []int{1, 4} {
		// The cluster engine replaying the churn trace is the reference
		// stream for this shard count.
		engAcct := newAcct()
		if _, err := cluster.Run(cluster.Config{
			Trace: tr, Catalog: cat, Assignment: asg, Cost: cost, Observer: engAcct,
		}, mkPolicy(shards, engAcct)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("engine/shards=%d", shards), engAcct)

		for _, mode := range []string{ModeSerial, ModeEpoch} {
			acct := newAcct()
			r, err := New(Config{
				Catalog:    cat,
				Assignment: initAsg,
				Names:      names,
				Policy:     mkPolicy(shards, acct),
				Clock:      NewManualClock(time.Unix(0, 0)),
				Cost:       cost,
				Observer:   acct,
				Mode:       mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			replayChurn(t, r, tr, false)
			r.Close()
			check(fmt.Sprintf("%s/shards=%d", mode, shards), acct)
		}
	}
}
