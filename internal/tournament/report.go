package tournament

import "github.com/pulse-serverless/pulse/internal/cluster"

// Snapshot() prices the arena. Every float in a Snapshot is computed at
// snapshot time (or, for a retired slot, once at its retirement) from the
// integer ledgers the stream accumulated — by cluster.Ledger.Price, in a
// fixed order (variants within a function, functions within the total) —
// so two arenas that saw equivalent streams produce bit-identical
// snapshots no matter how the feeds fragmented or batched their samples.

// Tally is one policy's account of one function (or, in the totals row,
// the whole cluster). The attribution package aliases this type, so the
// field set and JSON tags are the /attribution wire format.
type Tally struct {
	Invocations int `json:"invocations"`
	WarmStarts  int `json:"warm_starts"`
	ColdStarts  int `json:"cold_starts"`
	// KeepAliveMBMinutes is the keep-alive footprint: MB kept alive summed
	// over minutes (divide by 1024 for the paper's GB-minutes).
	KeepAliveMBMinutes float64 `json:"keep_alive_mb_minutes"`
	KeepAliveCostUSD   float64 `json:"keep_alive_cost_usd"`
	// MeanAccuracyPct is the invocation-weighted mean accuracy delivered.
	MeanAccuracyPct float64 `json:"mean_accuracy_pct"`
	// AccuracyMinutesPct is the keep-alive quality delivered: kept-alive
	// variant-minutes weighted by each variant's accuracy (percent ×
	// minutes). Higher means more high-quality capacity was held warm.
	AccuracyMinutesPct float64 `json:"accuracy_minutes_pct"`
}

// Savings is the live policy's net position versus one entrant. Positive
// numbers favor the live policy.
type Savings struct {
	// KeepAliveCostUSD = entrant cost − actual cost.
	KeepAliveCostUSD float64 `json:"keep_alive_cost_usd"`
	// KeepAliveGBMinutes = (entrant − actual) footprint, in GB-minutes.
	KeepAliveGBMinutes float64 `json:"keep_alive_gb_minutes"`
	// ColdStartsAvoided = entrant cold starts − actual cold starts
	// (negative when the live policy incurred more).
	ColdStartsAvoided int `json:"cold_starts_avoided"`
	// AccuracyDeltaPct = actual mean accuracy − entrant mean accuracy.
	AccuracyDeltaPct float64 `json:"accuracy_delta_pct"`
}

// FunctionLedger is one function's full account: the live tally, one
// shadow tally per entrant (in entrant registration order), and the
// pairwise savings.
type FunctionLedger struct {
	Function     int     `json:"function"`
	Family       string  `json:"family"`
	Downgrades   int     `json:"downgrades"`
	ColdStartPct float64 `json:"cold_start_pct"` // live cold starts / invocations × 100

	Actual  Tally     `json:"actual"`
	Shadows []Tally   `json:"shadows"`
	Savings []Savings `json:"savings"`
}

// Snapshot is a full arena snapshot.
type Snapshot struct {
	// Minute is the open (still accumulating) minute, -1 before any sample.
	Minute int `json:"minute"`
	// Entrants names each Shadows/Savings column, in order.
	Entrants  []string         `json:"entrants"`
	Functions []FunctionLedger `json:"functions"`
	// Total aggregates every function (Function = -1, Family = "").
	Total FunctionLedger `json:"total"`
}

// Snapshot computes the priced snapshot. It allocates (the caller gets an
// independent copy); the hot observation path never calls it.
func (a *Arena) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := Snapshot{
		Minute:    a.cur,
		Entrants:  a.EntrantNames(),
		Functions: make([]FunctionLedger, len(a.fns)),
	}
	r.Total.Function = -1
	r.Total.Shadows = make([]Tally, len(a.ents))
	r.Total.Savings = make([]Savings, len(a.ents))
	for fn := range a.fns {
		fr := a.functionLedger(fn)
		r.Functions[fn] = fr
		addTally(&r.Total.Actual, fr.Actual)
		for ei := range a.ents {
			addTally(&r.Total.Shadows[ei], fr.Shadows[ei])
		}
		r.Total.Downgrades += fr.Downgrades
	}
	finishTally(&r.Total.Actual)
	for ei := range a.ents {
		finishTally(&r.Total.Shadows[ei])
	}
	finishFunctionLedger(&r.Total)
	return r
}

// functionLedger prices one function's accounts: the live policy's and,
// in registration order, every entrant's. Called with a.mu held.
func (a *Arena) functionLedger(fn int) FunctionLedger {
	f := &a.fns[fn]
	fi := &a.fams[a.famOf[fn]]
	fr := FunctionLedger{
		Function:   fn,
		Family:     fi.fam.Name,
		Downgrades: f.downgrades,
		Actual:     tally(f.totals(fi, a.cost)),
		Shadows:    make([]Tally, len(a.ents)),
		Savings:    make([]Savings, len(a.ents)),
	}
	for ei := range a.ents {
		fr.Shadows[ei] = tally(a.ents[ei].led[fn].totals(fi, a.cost))
	}
	finishFunctionLedger(&fr)
	return fr
}

// tally is a priced account in the wire format.
func tally(t cluster.Totals) Tally {
	out := Tally{
		Invocations:        t.Invocations,
		WarmStarts:         t.WarmStarts,
		ColdStarts:         t.ColdStarts,
		KeepAliveMBMinutes: t.KeepAliveMBMinutes,
		KeepAliveCostUSD:   t.KeepAliveCostUSD,
		MeanAccuracyPct:    t.AccuracySumPct,
		AccuracyMinutesPct: t.AccuracyMinutesPct,
	}
	finishTally(&out)
	return out
}

// addTally folds src's additive fields into dst. src.MeanAccuracyPct is
// already a finished mean, so it is re-weighted by invocations back into
// sum form; finishTally on dst divides it out again.
func addTally(dst *Tally, src Tally) {
	dst.Invocations += src.Invocations
	dst.WarmStarts += src.WarmStarts
	dst.ColdStarts += src.ColdStarts
	dst.KeepAliveMBMinutes += src.KeepAliveMBMinutes
	dst.KeepAliveCostUSD += src.KeepAliveCostUSD
	dst.AccuracyMinutesPct += src.AccuracyMinutesPct
	dst.MeanAccuracyPct += src.MeanAccuracyPct * float64(src.Invocations)
}

// finishTally converts MeanAccuracyPct from its accumulated form into the
// invocation-weighted mean.
func finishTally(t *Tally) {
	if t.Invocations > 0 {
		t.MeanAccuracyPct /= float64(t.Invocations)
	}
}

// finishFunctionLedger derives the savings and rate fields from the
// finished tallies.
func finishFunctionLedger(fr *FunctionLedger) {
	if fr.Actual.Invocations > 0 {
		fr.ColdStartPct = 100 * float64(fr.Actual.ColdStarts) / float64(fr.Actual.Invocations)
	}
	for ei := range fr.Shadows {
		fr.Savings[ei] = ComputeSavings(fr.Actual, fr.Shadows[ei])
	}
}

// ComputeSavings derives the live policy's net position versus one
// entrant tally.
func ComputeSavings(actual, entrant Tally) Savings {
	return Savings{
		KeepAliveCostUSD:   entrant.KeepAliveCostUSD - actual.KeepAliveCostUSD,
		KeepAliveGBMinutes: (entrant.KeepAliveMBMinutes - actual.KeepAliveMBMinutes) / 1024,
		ColdStartsAvoided:  entrant.ColdStarts - actual.ColdStarts,
		AccuracyDeltaPct:   actual.MeanAccuracyPct - entrant.MeanAccuracyPct,
	}
}
