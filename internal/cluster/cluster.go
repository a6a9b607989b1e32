// Package cluster implements the serverless platform simulator PULSE and
// the baseline keep-alive policies run against: a discrete-time engine at
// minute resolution (the paper's time base) with container keep-alive
// accounting, warm/cold start service-time attribution, a keep-alive memory
// ledger, and a configurable cost model.
//
// The engine is policy-agnostic: a Policy decides, for every simulated
// minute, which model variant (if any) each function keeps alive, and which
// variant serves an invocation that arrives cold. Everything else — memory,
// cost, service time, accuracy accounting — is computed here so that every
// policy is measured identically.
package cluster

import (
	"fmt"
	"time"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/stats"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/trace"
)

// NoVariant marks "no container kept alive" in a keep-alive decision.
const NoVariant = -1

// DefaultKeepAliveWindow is the fixed keep-alive period in minutes used by
// OpenWhisk, AWS, Azure, and Google Functions, and inherited by PULSE as
// the window it optimizes within.
const DefaultKeepAliveWindow = 10

// CostModel converts keep-alive memory into provider cost. The paper quotes
// AWS pricing; the printed "$16.67 per KB-second" is a unit typo (it would
// price one 1 GB container-minute at ~$10⁹), so the default uses AWS
// Lambda's published $1.667e-5 per GB-second. All policies are charged
// through the same model, so relative improvements — the paper's reported
// metric — are insensitive to the absolute rate.
type CostModel struct {
	USDPerGBSecond float64
}

// DefaultCostModel returns the AWS-Lambda-calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{USDPerGBSecond: 1.667e-5}
}

// KeepAliveUSDPerMinute prices one minute of keep-alive for a container of
// the given memory footprint.
func (cm CostModel) KeepAliveUSDPerMinute(memMB float64) float64 {
	return cm.USDPerGBSecond * (memMB / 1024) * 60
}

// Policy is a keep-alive controller. The engine drives it minute by
// minute; implementations must be deterministic for reproducible runs.
// Policies that own background resources (such as the PULSE controller's
// record-step helper goroutines) additionally implement io.Closer; drivers
// that construct policies should close them when done.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// KeepAlive returns, for minute t, the variant index each function
	// keeps alive during minute t (NoVariant for none). The returned slice
	// is indexed by function and owned by the engine until the next call.
	// KeepAlive is called before the minute's invocations are served: a
	// container kept alive at t serves the invocations arriving at t warm.
	KeepAlive(t int) []int
	// ColdVariant returns the variant index that serves function fn's
	// invocations at minute t when no container is alive (a cold start).
	ColdVariant(t, fn int) int
	// RecordInvocations informs the policy of the invocation counts
	// observed at minute t (one entry per function), after they were
	// served. Policies update their histories and future plans here.
	RecordInvocations(t int, counts []int)
}

// ActiveSetPolicy is a Policy that maintains an incremental index of the
// slots whose decision can be anything but NoVariant — the "active set".
// It lets the engine's per-minute accounting and record paths skip idle
// slots instead of scanning the whole population; results must stay
// bit-identical because every slot outside the set is guaranteed NoVariant
// and the set is iterated in ascending slot order (the dense scan order).
type ActiveSetPolicy interface {
	Policy
	// RecordInvocationsSparse is RecordInvocations driven by a pre-built
	// strictly ascending list of the slots with counts[fn] > 0, so the
	// policy need not scan the dense counts vector. counts remains the
	// authoritative per-slot values; the decisions must be identical to a
	// RecordInvocations call with the same counts.
	RecordInvocationsSparse(t int, counts []int, invoked []int32)
	// ActiveSlots returns the current active set, strictly ascending. It is
	// valid after a KeepAlive call until the next policy call, aliases
	// policy-owned state, and must not be mutated. Every slot outside the
	// list decided NoVariant for the minute.
	ActiveSlots() []int32
}

// HolderWalk is the producer half of the sparse KeepAlive contract
// (telemetry.KeepAliveSample): it remembers which slots held a variant last
// minute, so a minute's accounting visits exactly the slots that can owe an
// observer a sample — this minute's candidates plus last minute's holders,
// whose release edge must be reported — and nothing else. The cluster engine
// and the live runtime share it, which is what keeps their streams identical.
type HolderWalk struct {
	held, next []int32 // last minute's holders (ascending); scratch for this minute's
	all        []int32 // identity visit list for policies without an active set
}

// Slots returns the minute's candidate list for policy p over n slots: the
// policy's active set when it tracks one, otherwise every slot. Which walk
// runs depends only on what the policy can tell us, never on who listens.
func (w *HolderWalk) Slots(p Policy, n int) []int32 {
	if asp, ok := p.(ActiveSetPolicy); ok {
		return asp.ActiveSlots()
	}
	for len(w.all) < n {
		w.all = append(w.all, int32(len(w.all)))
	}
	return w.all[:n]
}

// Held returns last minute's holders, strictly ascending — after a Visit,
// the holders it named. It aliases walk state until the next Visit.
func (w *HolderWalk) Held() []int32 { return w.held }

// Visit calls visit(fn, wasHeld) once for every slot in the ascending union
// of last minute's holders and slots (strictly ascending, a superset of the
// slots deciding anything but NoVariant). visit reports whether fn holds a
// variant this minute; the holders it names are next minute's release
// candidates. A KeepAlive sample is owed exactly when holds || wasHeld.
func (w *HolderWalk) Visit(slots []int32, visit func(fn int, wasHeld bool) (holds bool)) {
	held, next := w.held, w.next[:0]
	i, j := 0, 0
	for i < len(held) || j < len(slots) {
		var fn int32
		wasHeld := false
		switch {
		case j >= len(slots) || (i < len(held) && held[i] < slots[j]):
			fn, wasHeld = held[i], true
			i++
		case i >= len(held) || slots[j] < held[i]:
			fn = slots[j]
			j++
		default:
			fn, wasHeld = held[i], true
			i++
			j++
		}
		if visit(int(fn), wasHeld) {
			next = append(next, fn)
		}
	}
	w.held, w.next = next, held
}

// Config assembles a simulation run.
type Config struct {
	Trace      *trace.Trace
	Catalog    *models.Catalog
	Assignment models.Assignment // function index → family index
	Cost       CostModel
	// MeasureOverhead samples wall-clock time spent inside policy calls,
	// feeding the Figure 9 overhead comparison. It is the only wall-clock
	// use in the engine and does not affect simulated results.
	MeasureOverhead bool
	// RecordServiceTimes keeps every invocation's service time in the
	// result so tail latencies (P95/P99) can be reported, not just totals.
	RecordServiceTimes bool
	// Observer, when non-nil, receives per-minute keep-alive and
	// invocation samples — the same instrumentation surface the live
	// runtime uses, so simulation runs can be audited identically.
	Observer telemetry.Observer
}

// Validate checks the configuration is runnable.
func (c *Config) Validate() error {
	if c.Trace == nil {
		return fmt.Errorf("cluster: nil trace")
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	if c.Catalog == nil {
		return fmt.Errorf("cluster: nil catalog")
	}
	if err := c.Catalog.Validate(); err != nil {
		return err
	}
	if err := c.Assignment.Validate(c.Catalog, len(c.Trace.Functions)); err != nil {
		return err
	}
	if c.Cost.USDPerGBSecond <= 0 {
		return fmt.Errorf("cluster: non-positive cost rate %v", c.Cost.USDPerGBSecond)
	}
	return nil
}

// Result aggregates one simulated run of one policy.
type Result struct {
	Policy            string
	Horizon           int
	Invocations       int
	WarmStarts        int
	ColdStarts        int
	TotalServiceSec   float64
	KeepAliveCostUSD  float64
	AccuracySumPct    float64 // Σ accuracy delivered per invocation, in percent
	PerMinuteKaMMB    []float64
	PerMinuteCostUSD  []float64
	PolicyOverheadSec float64 // wall-clock inside policy calls (if measured)
	PolicyCalls       int
	// ServiceTimesSec holds one entry per invocation when
	// Config.RecordServiceTimes is set (order: minute, then function).
	ServiceTimesSec []float64
}

// ServiceTimePercentile returns the p-th percentile of per-invocation
// service times. It errors when service times were not recorded.
func (r *Result) ServiceTimePercentile(p float64) (float64, error) {
	if len(r.ServiceTimesSec) == 0 {
		return 0, fmt.Errorf("cluster: service times not recorded (set Config.RecordServiceTimes)")
	}
	return stats.Percentile(r.ServiceTimesSec, p)
}

// MeanAccuracyPct returns the paper's accuracy metric: the accuracy
// delivered per invocation, averaged over all invocations.
func (r *Result) MeanAccuracyPct() float64 {
	if r.Invocations == 0 {
		return 0
	}
	return r.AccuracySumPct / float64(r.Invocations)
}

// WarmStartRate returns the fraction of invocations served warm.
func (r *Result) WarmStartRate() float64 {
	if r.Invocations == 0 {
		return 0
	}
	return float64(r.WarmStarts) / float64(r.Invocations)
}

// OverheadPerServiceTime returns Figure 9's x-axis: policy decision
// overhead divided by total service time delivered.
func (r *Result) OverheadPerServiceTime() float64 {
	if r.TotalServiceSec == 0 {
		return 0
	}
	return r.PolicyOverheadSec / r.TotalServiceSec
}

// Run simulates the whole trace under the given policy. Every trace runs
// through one minute loop — lifecycle → KeepAlive → accounting → serve →
// record, the exact order the live runtime replays, so attribution reports
// from both paths are comparable sample for sample. A static trace has an
// empty lifecycle schedule; only a trace with churn requires a
// DynamicPolicy (churn.go).
func Run(cfg Config, p Policy) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	tr := cfg.Trace
	lc, err := newLifecycle(&cfg, p)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy:           p.Name(),
		Horizon:          tr.Horizon,
		PerMinuteKaMMB:   make([]float64, tr.Horizon),
		PerMinuteCostUSD: make([]float64, tr.Horizon),
	}
	counts := make([]int, len(lc.slots))
	// The run's totals are counted, then priced once when it ends.
	led := NewLedgers(cfg.Catalog)

	// Idle-skip: when the policy tracks its active set, the accounting walk
	// visits only the slots that can hold a decision or owe a release
	// sample, and the record fan-in hands the policy the minute's ascending
	// invoked list. Both iterate ascending, so every per-minute float
	// accumulates in dense-scan order — results are bit-identical.
	var invoked []int32
	var walk HolderWalk
	famOf := func(fn int) (int, bool) { return lc.slots[fn].fam, lc.slots[fn].live }
	obs := cfg.Observer
	timing := telemetry.WantsSelf(obs)

	for t := 0; t < tr.Horizon; t++ {
		if err := lc.step(t); err != nil {
			return nil, err
		}
		n := lc.issued

		var start time.Time
		if cfg.MeasureOverhead {
			start = time.Now()
		}
		alive := p.KeepAlive(t)
		if cfg.MeasureOverhead {
			res.PolicyOverheadSec += time.Since(start).Seconds()
			res.PolicyCalls++
		}
		if len(alive) != n {
			return nil, fmt.Errorf("cluster: policy %q returned %d decisions for %d slots at minute %d",
				p.Name(), len(alive), n, t)
		}

		// Keep-alive accounting. A slot deregistered while holding a variant
		// still gets its release sample this minute (the contract is a
		// function of the decision vectors alone), after which it rests like
		// any idle slot.
		var scan0 time.Time
		if timing {
			scan0 = time.Now()
		}
		kamMB, costUSD, err := AccountKeepAlive(cfg.Catalog, cfg.Cost, obs, p, &walk, t, alive, famOf, led)
		if err != nil {
			return nil, err
		}
		if timing {
			telemetry.ObserveScan(obs, telemetry.ScanSample{
				Minute: t, Shard: -1, Functions: len(walk.Slots(p, n)), Seconds: time.Since(scan0).Seconds(),
			})
		}
		res.PerMinuteKaMMB[t] = kamMB
		res.PerMinuteCostUSD[t] = costUSD

		// Serve this minute's invocations (a validated trace counts none
		// outside a function's lifetime).
		invoked = invoked[:0]
		for fn := 0; fn < n; fn++ {
			s := &lc.slots[fn]
			c := s.fn.Counts[t]
			counts[fn] = c
			if c == 0 {
				continue
			}
			invoked = append(invoked, int32(fn))
			if err := serveFunction(&cfg, p, res, led[s.fam], t, fn, c, alive[fn], s.fam); err != nil {
				return nil, err
			}
		}

		if cfg.MeasureOverhead {
			start = time.Now()
		}
		Record(p, t, counts[:n], invoked)
		if cfg.MeasureOverhead {
			res.PolicyOverheadSec += time.Since(start).Seconds()
		}
	}
	tot := led.Price(cfg.Catalog, cfg.Cost)
	res.Invocations, res.WarmStarts, res.ColdStarts = tot.Invocations, tot.WarmStarts, tot.ColdStarts
	res.TotalServiceSec, res.AccuracySumPct, res.KeepAliveCostUSD = tot.ServiceSec, tot.AccuracySumPct, tot.KeepAliveCostUSD
	return res, nil
}

// Record reports minute t's counts (one entry per issued slot) to p: through
// invoked, the ascending list of slots with counts[fn] > 0, when p tracks an
// active set, otherwise through the dense vector. It is the one record
// fan-in — the engine calls it as a minute closes, the live runtime at the
// barrier that closes one.
func Record(p Policy, t int, counts []int, invoked []int32) {
	if asp, ok := p.(ActiveSetPolicy); ok {
		asp.RecordInvocationsSparse(t, counts, invoked)
		return
	}
	p.RecordInvocations(t, counts)
}

// AccountKeepAlive is the keep-alive accounting for minute t, shared by the
// engine and the live runtime: it validates p's decisions alive, counts each
// holder's minute into led (one ledger per family), sums the minute's memory
// and cost in ascending slot order, and emits obs's KeepAlive samples under
// the sparse contract — one per holder, one per release edge, none for a
// slot resting at NoVariant — then the minute's MinuteSample. Only w's slots
// are visited, so the work is O(active) under an ActiveSetPolicy and the
// sums still associate exactly as a dense scan's would (every skipped slot
// contributes nothing). famOf maps a slot to its family and liveness; a
// tombstoned slot must decide NoVariant. On return w.Held lists the
// minute's holders. A non-nil error leaves the walk, led and the stream
// partial.
func AccountKeepAlive(cat *models.Catalog, cost CostModel, obs telemetry.Observer, p Policy, w *HolderWalk, t int, alive []int, famOf func(fn int) (fam int, live bool), led Ledgers) (kamMB, costUSD float64, err error) {
	w.Visit(w.Slots(p, len(alive)), func(fn int, wasHeld bool) bool {
		if err != nil {
			return false
		}
		vi := alive[fn]
		if vi == NoVariant {
			if wasHeld && obs != nil {
				obs.ObserveKeepAlive(telemetry.KeepAliveSample{Minute: t, Function: fn, Variant: NoVariant})
			}
			return false
		}
		famIdx, live := famOf(fn)
		if !live {
			err = fmt.Errorf("cluster: policy %q kept variant %d alive for deregistered function %d at minute %d",
				p.Name(), vi, fn, t)
			return false
		}
		fam := &cat.Families[famIdx]
		if vi < 0 || vi >= fam.NumVariants() {
			err = fmt.Errorf("cluster: policy %q kept invalid variant %d of family %q alive for function %d at minute %d",
				p.Name(), vi, fam.Name, fn, t)
			return false
		}
		led[famIdx].Hold(vi)
		mem := fam.Variants[vi].MemoryMB
		kamMB += mem
		costUSD += cost.KeepAliveUSDPerMinute(mem)
		if obs != nil {
			obs.ObserveKeepAlive(telemetry.KeepAliveSample{
				Minute:      t,
				Function:    fn,
				Variant:     vi,
				VariantName: fam.Variants[vi].Name,
				MemMB:       mem,
			})
		}
		return true
	})
	if err == nil && obs != nil {
		obs.ObserveMinute(telemetry.MinuteSample{Minute: t, KeepAliveMB: kamMB, CostUSD: costUSD})
	}
	return kamMB, costUSD, err
}

// serveFunction serves one invoked function's minute: warm on the
// kept-alive variant, or a cold start on the policy's cold variant with the
// remainder of the minute served warm. It counts the minute into led (the
// function's family's ledger) and emits its samples. famIdx is passed
// explicitly because under churn the function slot is not an index into
// Config.Assignment.
func serveFunction(cfg *Config, p Policy, res *Result, led Ledger, t, fn, c, vi, famIdx int) error {
	fam := &cfg.Catalog.Families[famIdx]
	cold := vi == NoVariant
	if cold {
		if vi = p.ColdVariant(t, fn); vi < 0 || vi >= fam.NumVariants() {
			return fmt.Errorf("cluster: policy %q chose invalid cold variant %d of family %q for function %d at minute %d",
				p.Name(), vi, fam.Name, fn, t)
		}
	}
	v := &fam.Variants[vi]
	led.ServeMinute(vi, c, cold)
	if cfg.RecordServiceTimes {
		// The first invocation pays the cold start and creates a container
		// that serves the rest of the minute warm.
		warm := c
		if cold {
			res.ServiceTimesSec = append(res.ServiceTimesSec, v.ColdServiceSec())
			warm--
		}
		for i := 0; i < warm; i++ {
			res.ServiceTimesSec = append(res.ServiceTimesSec, v.ExecSec)
		}
	}
	ObserveServed(cfg.Observer, t, fn, c, v, cold)
	return nil
}

// ObserveServed emits one function-minute's c invocations served on variant v
// to obs (nil: none): when the minute began cold, one Cold sample of Count 1
// (ColdServiceSec), then one warm sample (ExecSec) for the rest. It is the
// only producer of invocation samples — the engine calls it as it serves a
// minute, the live runtime at the barrier that closes one — so every
// function-minute reaches observers in the minute its policy recorded it.
func ObserveServed(obs telemetry.Observer, t, fn, c int, v *models.Variant, cold bool) {
	if obs == nil {
		return
	}
	for c > 0 {
		s := telemetry.InvocationSample{
			Minute: t, Function: fn, Variant: v.Name,
			Count: c, ServiceSec: v.ExecSec, AccuracyPct: v.AccuracyPct,
		}
		if cold {
			s.Cold, s.Count, s.ServiceSec = true, 1, v.ColdServiceSec()
			cold = false
		}
		obs.ObserveInvocation(s)
		c -= s.Count
	}
}

// IdealCostSeries returns, per minute, the keep-alive cost of the paper's
// "ideal" reference (Figure 6b): a container of the function's
// highest-quality variant is alive only during the minutes the function is
// actually invoked.
func IdealCostSeries(tr *trace.Trace, cat *models.Catalog, asg models.Assignment, cost CostModel) ([]float64, error) {
	if err := (&Config{Trace: tr, Catalog: cat, Assignment: asg, Cost: cost}).Validate(); err != nil {
		return nil, err
	}
	out := make([]float64, tr.Horizon)
	for fn := range tr.Functions {
		fam := &cat.Families[asg[fn]]
		perMin := cost.KeepAliveUSDPerMinute(fam.Highest().MemoryMB)
		for t, c := range tr.Functions[fn].Counts {
			if c > 0 {
				out[t] += perMin
			}
		}
	}
	return out, nil
}
