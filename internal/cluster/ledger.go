package cluster

import "github.com/pulse-serverless/pulse/internal/models"

// Ledger is the integer account of one model family's use: for each variant,
// the minutes a container of it was kept alive (holder-minutes) and the warm
// and cold invocations it served. Counting is order-free, and Price is the
// one place counts become floats. The engine, the live runtime and the
// tournament arena count the same events in different orders; pricing one
// shape in one order is what makes their totals agree bit for bit.
type Ledger []int

// ledgerCols is the per-variant stride: held minutes, warm, cold.
const ledgerCols = 3

// LedgerLen is the length of the ledger of a family of numVariants variants.
func LedgerLen(numVariants int) int { return ledgerCols * numVariants }

// NewLedger returns an empty ledger for fam.
func NewLedger(fam *models.Family) Ledger { return make(Ledger, LedgerLen(fam.NumVariants())) }

// Hold counts one minute of a variant-v container kept alive.
func (l Ledger) Hold(v int) { l[ledgerCols*v]++ }

// Serve counts warm and cold invocations served on variant v.
func (l Ledger) Serve(v, warm, cold int) {
	l[ledgerCols*v+1] += warm
	l[ledgerCols*v+2] += cold
}

// ServeMinute counts one function-minute of c invocations served on variant
// v: when it began cold, one cold start and c−1 warm invocations on the
// container it created, else c warm ones.
func (l Ledger) ServeMinute(v, c int, cold bool) {
	if cold {
		l.Serve(v, c-1, 1)
	} else {
		l.Serve(v, c, 0)
	}
}

// Totals is one or more ledgers priced: the paper's per-run totals (Figures
// 5–8) plus the keep-alive footprint and quality the attribution report
// shows.
type Totals struct {
	Invocations, WarmStarts, ColdStarts int
	ServiceSec                          float64 // warm × ExecSec + cold × ColdServiceSec
	AccuracySumPct                      float64 // Σ accuracy delivered per invocation, in percent
	KeepAliveMBMinutes                  float64 // held minutes × MemoryMB
	KeepAliveCostUSD                    float64 // held minutes × cost's per-minute price of MemoryMB
	AccuracyMinutesPct                  float64 // held minutes × AccuracyPct
}

// Price adds the price of l, a ledger of fam, to t under cost, fam's
// variants in index order.
func (l Ledger) Price(t *Totals, fam *models.Family, cost CostModel) {
	for v := range fam.Variants {
		vr := &fam.Variants[v]
		held, warm, cold := l[ledgerCols*v], l[ledgerCols*v+1], l[ledgerCols*v+2]
		t.Invocations += warm + cold
		t.WarmStarts += warm
		t.ColdStarts += cold
		t.ServiceSec += float64(warm)*vr.ExecSec + float64(cold)*vr.ColdServiceSec()
		t.AccuracySumPct += float64(warm+cold) * vr.AccuracyPct
		t.KeepAliveMBMinutes += float64(held) * vr.MemoryMB
		t.KeepAliveCostUSD += float64(held) * cost.KeepAliveUSDPerMinute(vr.MemoryMB)
		t.AccuracyMinutesPct += float64(held) * vr.AccuracyPct
	}
}

// Ledgers is one Ledger per family of a catalog, indexed like its Families:
// the account of a whole population.
type Ledgers []Ledger

// NewLedgers returns an empty ledger for every family of cat.
func NewLedgers(cat *models.Catalog) Ledgers {
	ls := make(Ledgers, len(cat.Families))
	for f := range ls {
		ls[f] = NewLedger(&cat.Families[f])
	}
	return ls
}

// Price prices every family's ledger, in family order.
func (ls Ledgers) Price(cat *models.Catalog, cost CostModel) Totals {
	var t Totals
	for f, l := range ls {
		l.Price(&t, &cat.Families[f], cost)
	}
	return t
}
