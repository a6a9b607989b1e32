package pulse_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its experiment). Each benchmark
// runs the corresponding experiment end-to-end per iteration and reports
// its headline values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both times the reproduction machinery and prints the reproduced numbers.
// Benchmark-scale defaults (1-day trace, few runs) keep the suite fast;
// cmd/experiments runs the same experiments at paper scale (14 days,
// 1000 runs).

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/experiments"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// benchOpts is the benchmark-scale experiment configuration.
func benchOpts() experiments.Options {
	return experiments.Options{
		Seed:           1,
		HorizonMinutes: trace.MinutesPerDay,
		Runs:           3,
	}
}

func BenchmarkTableI_ModelCharacterization(b *testing.B) {
	var warm float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		warm = rows[0].MeanWarmSec
	}
	b.ReportMetric(warm, "GPT-Small-warm-s")
}

func benchPeakTable(b *testing.B, run func(experiments.Options) ([]experiments.PeakApproachResult, error)) {
	b.Helper()
	var rows []experiments.PeakApproachResult
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = run(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].KeepAliveUSD*100, "allhigh-cost-cents")
	b.ReportMetric(rows[1].KeepAliveUSD*100, "alllow-cost-cents")
	b.ReportMetric(rows[3].AccuracyPct, "intelligent-accuracy-pct")
}

func BenchmarkTableII_PeakI(b *testing.B) {
	benchPeakTable(b, experiments.TableII)
}

func BenchmarkTableIII_PeakII(b *testing.B) {
	benchPeakTable(b, experiments.TableIII)
}

func BenchmarkFigure1_InterArrivalDiversity(b *testing.B) {
	var series int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		series = len(rows)
	}
	b.ReportMetric(float64(series), "functions")
}

func BenchmarkFigure2_TemporalDrift(b *testing.B) {
	opts := benchOpts()
	opts.HorizonMinutes = 6 * trace.MinutesPerDay
	var periods int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2(opts)
		if err != nil {
			b.Fatal(err)
		}
		periods = len(rows)
	}
	b.ReportMetric(float64(periods), "periods")
}

func BenchmarkFigure4_IndividualOptMemory(b *testing.B) {
	var fixedAvg, indivAvg float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		fixedAvg, indivAvg = rows[0].AvgKaMMB, rows[1].AvgKaMMB
	}
	b.ReportMetric(fixedAvg, "fixed-avg-KaM-MB")
	b.ReportMetric(indivAvg, "indiv-avg-KaM-MB")
}

func BenchmarkFigure5_CostAccuracyTradeoff(b *testing.B) {
	var pts []experiments.TradeoffPoint
	for i := 0; i < b.N; i++ {
		var err error
		if pts, err = experiments.Figure5(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[2].KeepAliveUSD*100, "pulse-cost-cents")
	b.ReportMetric(pts[2].AccuracyPct, "pulse-accuracy-pct")
}

func BenchmarkFigure6a_ImprovementOverOpenWhisk(b *testing.B) {
	var costPct, svcPct, accPct float64
	for i := 0; i < b.N; i++ {
		imp, err := experiments.Figure6a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		costPct, svcPct, accPct = imp.CostPct, imp.ServiceTimePct, imp.AccuracyPct
	}
	b.ReportMetric(costPct, "cost-improvement-pct")    // paper: 39.5
	b.ReportMetric(svcPct, "service-improvement-pct")  // paper: 8.8
	b.ReportMetric(accPct, "accuracy-improvement-pct") // paper: -0.6
}

func BenchmarkFigure6b_ErrorVsIdeal(b *testing.B) {
	var pulseMAE, owMAE float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		pulseMAE, owMAE = res.PulseMAE, res.OpenWhiskMAE
	}
	b.ReportMetric(pulseMAE, "pulse-MAE-pct")
	b.ReportMetric(owMAE, "openwhisk-MAE-pct")
}

func BenchmarkFigure7_PeakSmoothing(b *testing.B) {
	var fixedPeak, pulsePeak float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		fixedPeak, pulsePeak = rows[0].PeakKaMMB, rows[1].PeakKaMMB
	}
	b.ReportMetric(fixedPeak, "fixed-peak-KaM-MB")
	b.ReportMetric(pulsePeak, "pulse-peak-KaM-MB")
}

func BenchmarkFigure8_Integration(b *testing.B) {
	opts := benchOpts()
	opts.Runs = 2
	var wildCost, iceCost float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(opts)
		if err != nil {
			b.Fatal(err)
		}
		wildCost, iceCost = res.Wild.CostPct, res.IceBreaker.CostPct
	}
	b.ReportMetric(wildCost, "wild-cost-improvement-pct")      // paper: 99
	b.ReportMetric(iceCost, "icebreaker-cost-improvement-pct") // paper: 14
}

func BenchmarkFigure9_MILPOverhead(b *testing.B) {
	opts := benchOpts()
	opts.Runs = 2
	var res *experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.Figure9(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PulseMeanRatio*1e6, "pulse-overhead-ppm")
	b.ReportMetric(res.MILPMeanRatio*1e6, "milp-overhead-ppm")
	b.ReportMetric(res.PulseAccuracyPct-res.MILPAccuracyPct, "pulse-minus-milp-accuracy-pct")
}

func benchSweep(b *testing.B, run func(experiments.Options) ([]experiments.SweepPoint, error)) []experiments.SweepPoint {
	b.Helper()
	opts := benchOpts()
	opts.Runs = 2
	var pts []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		if pts, err = run(opts); err != nil {
			b.Fatal(err)
		}
	}
	return pts
}

func BenchmarkFigure10_ThresholdTechniques(b *testing.B) {
	pts := benchSweep(b, experiments.Figure10)
	b.ReportMetric(pts[0].CostPct, "T1-cost-improvement-pct")
	b.ReportMetric(pts[1].CostPct, "T2-cost-improvement-pct")
}

func BenchmarkFigure11_MemoryThresholds(b *testing.B) {
	pts := benchSweep(b, experiments.Figure11)
	for i, label := range []string{"M1", "M2", "M3"} {
		b.ReportMetric(pts[i].CostPct, label+"-cost-improvement-pct")
	}
}

func BenchmarkFigure12_LocalWindows(b *testing.B) {
	pts := benchSweep(b, experiments.Figure12)
	for i, label := range []string{"w10", "w60", "w120"} {
		b.ReportMetric(pts[i].CostPct, label+"-cost-improvement-pct")
	}
}

// Ablation benches for the design choices DESIGN.md §5 calls out.

func BenchmarkExtensionHoltWinters(b *testing.B) {
	opts := benchOpts()
	opts.Runs = 2
	var costPct float64
	for i := 0; i < b.N; i++ {
		imp, err := experiments.ExtensionHoltWinters(opts)
		if err != nil {
			b.Fatal(err)
		}
		costPct = imp.CostPct
	}
	b.ReportMetric(costPct, "hw-cost-improvement-pct")
}

func BenchmarkAblationHistoryBlend(b *testing.B) {
	pts := benchSweep(b, experiments.AblationHistoryBlend)
	for i, label := range []string{"both", "local", "global"} {
		b.ReportMetric(pts[i].AccuracyPct, label+"-accuracy-change-pct")
	}
}

func BenchmarkAblationPriorityTerm(b *testing.B) {
	pts := benchSweep(b, experiments.AblationPriorityTerm)
	b.ReportMetric(pts[0].CostPct, "with-priority-cost-pct")
	b.ReportMetric(pts[1].CostPct, "without-priority-cost-pct")
}

func BenchmarkAblationPriorKaM(b *testing.B) {
	pts := benchSweep(b, experiments.AblationPriorKaM)
	b.ReportMetric(pts[0].ServiceTimePct, "algorithm1-service-pct")
	b.ReportMetric(pts[1].ServiceTimePct, "naive-service-pct")
}

func BenchmarkAblationDowngradeStep(b *testing.B) {
	pts := benchSweep(b, experiments.AblationDowngradeStep)
	for i, label := range []string{"byone", "byone-evict", "evict"} {
		b.ReportMetric(pts[i].ServiceTimePct, label+"-service-pct")
	}
}

func BenchmarkAblationDowngradeSelection(b *testing.B) {
	pts := benchSweep(b, experiments.AblationDowngradeSelection)
	b.ReportMetric(pts[0].AccuracyPct, "utility-accuracy-change-pct")
	b.ReportMetric(pts[1].AccuracyPct, "random-accuracy-change-pct")
}

// BenchmarkPulseSharded measures controller throughput at cluster scale —
// 10k functions per minute tick — one shard versus the default of one per
// GOMAXPROCS. The decisions are bit-identical at every shard count (the
// differential harness proves it); this benchmark shows what the sharding
// buys: RecordInvocations runs the per-function optimizer as one fork-join
// task per shard on the process's fork-join pool, the caller included.
func BenchmarkPulseSharded(b *testing.B) {
	const nFunctions = 10_000
	cat := pulse.Catalog()
	asg := pulse.UniformAssignment(cat, nFunctions)

	// Pre-generate a cycle of deterministic count vectors (~25% of
	// functions active per minute) so the benchmark loop measures the
	// controller, not trace generation.
	rng := rand.New(rand.NewSource(17))
	counts := make([][]int, 64)
	for i := range counts {
		counts[i] = make([]int, nFunctions)
		for fn := range counts[i] {
			if rng.Intn(4) == 0 {
				counts[i][fn] = 1 + rng.Intn(3)
			}
		}
	}

	for _, shards := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, err := pulse.New(pulse.Config{Catalog: cat, Assignment: asg, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for t := 0; t < b.N; t++ {
				p.KeepAlive(t)
				p.RecordInvocations(t, counts[t&63])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim-minutes/s")
		})
	}
}

// BenchmarkEndToEndSimulationMinute measures raw simulator throughput:
// simulated minutes per second under full PULSE on the default workload.
func BenchmarkEndToEndSimulationMinute(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*opts.HorizonMinutes)*float64(b.N)/b.Elapsed().Seconds(), "sim-minutes/s")
}
