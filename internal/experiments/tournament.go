package experiments

import (
	"fmt"
	"sort"

	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/report"
	"github.com/pulse-serverless/pulse/internal/tournament/roster"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// TournamentCell is one policy's position in one scenario of the tournament
// experiment: the live PULSE controller or one shadow entrant, ranked by
// total keep-alive cost within the scenario (rank 1 = cheapest).
type TournamentCell struct {
	Scenario      string
	Policy        string // "live" or an entrant name
	Live          bool
	Rank          int
	CostUSD       float64
	ColdStarts    int
	CostVsLiveUSD float64 // entrant cost − live cost; negative = shadow cheaper
}

// tournamentScenarios lists the workloads the entrants race on: one
// single-archetype trace per behaviour class from the Azure-like mix, plus
// the mixed trace under function churn (arrivals and departures mid-run).
func tournamentScenarios() []struct {
	Name       string
	Archetypes []trace.Archetype
	Churn      float64
} {
	single := func(a trace.Archetype) []trace.Archetype {
		out := make([]trace.Archetype, 6)
		for i := range out {
			out[i] = a
		}
		return out
	}
	return []struct {
		Name       string
		Archetypes []trace.Archetype
		Churn      float64
	}{
		{"periodic", single(trace.Periodic{Period: 8, Jitter: 2}), 0},
		{"poisson", single(trace.Poisson{Rate: 0.30}), 0},
		{"diurnal", single(trace.Diurnal{Base: 0.02, Amplitude: 0.6, PeakMinute: 13 * 60}), 0},
		{"bursty", single(trace.Bursty{BurstsPerDay: 3, BurstLen: 6, BurstRate: 4, QuietRate: 0.01}), 0},
		{"heavy-tailed", single(trace.HeavyTailed{Alpha: 1.3, Scale: 2}), 0},
		{"sporadic", single(trace.Sporadic{MeanGap: 180}), 0},
		{"drifting", single(trace.Drifting{Phases: []trace.Archetype{
			trace.Periodic{Period: 4, Jitter: 1},
			trace.Sporadic{MeanGap: 45},
			trace.Bursty{BurstsPerDay: 4, BurstLen: 5, BurstRate: 3, QuietRate: 0.01},
		}}), 0},
		{"mixed-churn", nil, 0.5}, // nil = the default Azure-like mix
	}
}

// ExtensionTournament races every packaged entrant (MPC, Hawkes,
// Q-learning) plus the built-in baselines against the live PULSE
// controller, once per trace archetype and once under function churn. Each
// scenario builds a fresh accountant carrying the full roster — the
// stateful learners must not carry knowledge across workloads — attaches
// it to cluster.Run as the Observer, and ranks live + entrants by total
// keep-alive cost from the arena snapshot. The rendered table is the
// README's entrant-ranking table.
func ExtensionTournament(opts Options) ([]TournamentCell, error) {
	opts = opts.withDefaults()
	cat := models.PaperCatalog()
	cost := cluster.DefaultCostModel()

	var cells []TournamentCell
	t := report.NewTable("Extension — policy tournament (entrants ranked by keep-alive cost per workload)",
		"workload", "rank", "policy", "cost ($)", "cold starts", "Δcost vs live ($)")
	for _, sc := range tournamentScenarios() {
		tr, err := trace.Generate(trace.GeneratorConfig{
			Seed:       opts.Seed,
			Horizon:    opts.HorizonMinutes,
			Archetypes: sc.Archetypes,
			Churn:      sc.Churn,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: tournament %s: %w", sc.Name, err)
		}
		asg := make(models.Assignment, len(tr.Functions))
		for i := range asg {
			asg[i] = i % len(cat.Families)
		}
		// The policy and the accountant see the initial population only;
		// churn arrivals reach both through the lifecycle sample stream.
		polAsg, names := asg, []string(nil)
		if tr.HasChurn() {
			if names, polAsg, err = cluster.InitialPopulation(tr, asg); err != nil {
				return nil, fmt.Errorf("experiments: tournament %s: %w", sc.Name, err)
			}
		}
		ents, err := roster.Build(roster.Names(), cat, cost)
		if err != nil {
			return nil, err
		}
		acct, err := attribution.New(attribution.Config{
			Catalog: cat, Assignment: polAsg, Cost: cost, Entrants: ents,
		})
		if err != nil {
			return nil, err
		}
		pol, err := core.New(core.Config{
			Catalog: cat, Assignment: polAsg, Names: names, Observer: acct,
		})
		if err != nil {
			return nil, err
		}
		if _, err := cluster.Run(cluster.Config{
			Trace: tr, Catalog: cat, Assignment: asg, Cost: cost,
			Observer: acct,
		}, pol); err != nil {
			return nil, fmt.Errorf("experiments: tournament %s: %w", sc.Name, err)
		}

		snap := acct.Arena().Snapshot()
		rows := []TournamentCell{{
			Scenario: sc.Name, Policy: "live", Live: true,
			CostUSD:    snap.Total.Actual.KeepAliveCostUSD,
			ColdStarts: snap.Total.Actual.ColdStarts,
		}}
		for i, name := range acct.EntrantNames() {
			sh := snap.Total.Shadows[i]
			rows = append(rows, TournamentCell{
				Scenario: sc.Name, Policy: name,
				CostUSD:       sh.KeepAliveCostUSD,
				ColdStarts:    sh.ColdStarts,
				CostVsLiveUSD: sh.KeepAliveCostUSD - snap.Total.Actual.KeepAliveCostUSD,
			})
		}
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].CostUSD != rows[j].CostUSD {
				return rows[i].CostUSD < rows[j].CostUSD
			}
			return rows[i].Policy < rows[j].Policy
		})
		for i := range rows {
			rows[i].Rank = i + 1
			label := rows[i].Policy
			if rows[i].Live {
				label += " *"
			}
			if err := t.AddRow(sc.Name, fmt.Sprintf("%d", rows[i].Rank), label,
				report.F4(rows[i].CostUSD), fmt.Sprintf("%d", rows[i].ColdStarts),
				report.F4(rows[i].CostVsLiveUSD)); err != nil {
				return nil, err
			}
		}
		cells = append(cells, rows...)
	}
	if err := t.Render(opts.Out); err != nil {
		return nil, err
	}
	return cells, nil
}
