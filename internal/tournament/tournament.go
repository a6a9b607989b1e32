// Package tournament generalizes the attribution layer's three baked-in
// shadow policies into a pluggable entrant framework: any keep-alive
// policy expressible as a ShadowEntrant can be raced in-stream against the
// live policy, with the same accounting discipline the Accountant always
// had — integer counters on the hot path, float pricing at snapshot time,
// and a fixed deterministic accounting order per entrant (functions in slot
// order) so results are invariant to shard count, runtime serving mode and
// how many goroutines walk the entrants.
//
// The Arena is the referee: a telemetry.Observer fed the barrier-ordered
// sample stream, it keeps one shared ledger (the live policy's account)
// plus one per-entrant per-function ledger, opens each minute by asking
// every entrant which variant it holds warm, and closes each minute by
// feeding every entrant the minute's per-function invocation counts (a
// RestingEntrant is spared the calls whose answers are already fixed).
// Entrants therefore only ever see the stream at minute granularity,
// which makes every entrant — including learning ones — a pure function
// of the trace: decisions for minute m may use history through m−1 only,
// and state updates happen at the minute barrier, never mid-minute.
//
// The packaged fixed-window, never, and oracle entrants re-express the
// accountant's original shadows; the attribution package pins their output
// bit-identical to the pre-refactor accountant.
package tournament

import "github.com/pulse-serverless/pulse/internal/cluster"

// NoVariant is the KeepAlive return value for "hold nothing warm".
const NoVariant = cluster.NoVariant

// ShadowEntrant is one raced keep-alive policy. The Arena drives it with a
// strict minute protocol, always in ascending function-slot order:
//
//	Register(fn, fam, nv)      — slot fn (dense, append-only) joins, family fam, nv variants
//	KeepAlive(m, fn)           — at the open of minute m: which variant is held warm (NoVariant: none)
//	Record(m, fn, count)       — at the close of minute m: the minute's total invocations (0 when idle)
//	Retire(fn)                 — slot fn deregistered; it will never be invoked or scanned again
//
// A RestingEntrant is spared the KeepAlive and Record calls whose answers
// its promises already fix.
//
// The Arena never calls one entrant concurrently with itself, but at every
// minute boundary it walks different entrants concurrently, on different
// goroutines: entrants must share no mutable state, and only the order of
// calls to one entrant is fixed, not how they interleave with another
// entrant's.
//
// Implementations must be deterministic (no wall clock, no global RNG) and
// must not allocate in KeepAlive or Record once registered: the Arena's
// steady-state minute is allocation-free and entrants ride inside it.
// Entrants never price anything — the Arena charges the held variant's
// memory and cost from the shared catalog geometry.
type ShadowEntrant interface {
	// Name identifies the entrant in reports, /top?by=policy, and the
	// savings_vs_<name>_usd time-series. Must be unique within an Arena.
	Name() string
	// Register opens ledger slot fn (the next dense slot) for a function
	// of family fam with numVariants quality variants.
	Register(fn, fam, numVariants int)
	// Retire closes slot fn; the entrant should release or reset any
	// per-function state (the slot is never scanned again).
	Retire(fn int)
	// KeepAlive reports the variant index the entrant holds warm for
	// function fn during minute m, or NoVariant. Called at most once per
	// minute per live function, ascending fn, before any of minute m's
	// samples: once for every live function, unless the entrant rests
	// (RestingEntrant).
	KeepAlive(m, fn int) int
	// Record delivers minute m's total invocation count for fn at the
	// minute barrier, after every sample of m was observed. The count may
	// be zero, except for a resting entrant.
	Record(m, fn, count int)
}

// RestingEntrant is a ShadowEntrant that may declare its idle slots at
// rest. When Rests returns true (asked once, when the Arena is built) the
// entrant promises three things:
//
//   - Record(m, fn, 0) changes nothing;
//   - a newly registered slot holds NoVariant until its first invoked minute;
//   - a slot that held NoVariant in minute m−1, and had no invocations in
//     m−1, holds NoVariant in m.
//
// The Arena then consults KeepAlive only for the slots the entrant held in
// m−1 plus the slots invoked in m−1, ascending, and calls Record only with a
// positive count. Every skipped call has a known answer, so the ledgers are
// exactly those of the full walk. Entrants that must see the zeros, such
// as a smoother updated every minute, do not rest.
type RestingEntrant interface {
	ShadowEntrant
	Rests() bool
}

// HindsightEntrant is a ShadowEntrant with retroactive clairvoyance: when
// a function-minute turns out to be invoked, HindsightKeepAlive may charge
// a variant as kept alive for that minute after the fact, serving the
// minute warm. The oracle baseline (paper Figure 6b's "ideal") is the
// canonical implementation: it holds the highest variant exactly during
// invoked minutes and never pays a cold start.
type HindsightEntrant interface {
	ShadowEntrant
	// HindsightKeepAlive is consulted on the first invocation batch of a
	// function-minute. A variant ≥ 0 is charged as kept alive for minute
	// m and the minute is served warm; NoVariant takes the cold start.
	HindsightKeepAlive(m, fn int) int
}
