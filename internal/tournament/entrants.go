package tournament

// The three packaged entrants re-express the attribution accountant's
// original baked-in shadows. Their accounting is proven bit-identical to
// the pre-refactor accountant by the attribution package's golden pin and
// the runtime differential suite.

// FixedWindow is the OpenWhisk/AWS-style baseline: after every invoked
// minute the family's highest-quality variant stays warm for the next
// window minutes (an invocation at minute m keeps the container alive
// through minute m+window).
type FixedWindow struct {
	name    string
	window  int
	lastInv []int // minute of last invocation per slot, -1 before any
	highest []int // highest variant index per slot
}

// NewFixedWindow builds the fixed keep-alive entrant.
func NewFixedWindow(name string, window int) *FixedWindow {
	return &FixedWindow{name: name, window: window}
}

// Name implements ShadowEntrant.
func (f *FixedWindow) Name() string { return f.name }

// Register implements ShadowEntrant.
func (f *FixedWindow) Register(fn, fam, numVariants int) {
	f.lastInv = append(f.lastInv, -1)
	f.highest = append(f.highest, numVariants-1)
}

// Retire implements ShadowEntrant: resetting lastInv to the never-invoked
// state closes the window immediately, like the policy package's
// tombstoned slots.
func (f *FixedWindow) Retire(fn int) { f.lastInv[fn] = -1 }

// KeepAlive implements ShadowEntrant.
func (f *FixedWindow) KeepAlive(m, fn int) int {
	if last := f.lastInv[fn]; last >= 0 && m <= last+f.window {
		return f.highest[fn]
	}
	return NoVariant
}

// Record implements ShadowEntrant.
func (f *FixedWindow) Record(m, fn, count int) {
	if count > 0 {
		f.lastInv[fn] = m
	}
}

// Rests implements RestingEntrant: a window only opens at an invoked minute.
func (f *FixedWindow) Rests() bool { return true }

// Never keeps nothing warm, ever: every invoked minute opens with a cold
// start on the highest variant. It is the floor of the cost axis and the
// ceiling of the cold-start axis.
type Never struct{ name string }

// NewNever builds the never-keep-alive entrant.
func NewNever(name string) *Never { return &Never{name: name} }

// Name implements ShadowEntrant.
func (n *Never) Name() string { return n.name }

// Register implements ShadowEntrant.
func (n *Never) Register(fn, fam, numVariants int) {}

// Retire implements ShadowEntrant.
func (n *Never) Retire(fn int) {}

// KeepAlive implements ShadowEntrant.
func (n *Never) KeepAlive(m, fn int) int { return NoVariant }

// Record implements ShadowEntrant.
func (n *Never) Record(m, fn, count int) {}

// Rests implements RestingEntrant.
func (n *Never) Rests() bool { return true }

// Oracle is the paper's hindsight ideal (Figure 6b): the highest variant
// is alive exactly during invoked minutes — charged retroactively when the
// minute's first invocation arrives — so no idle minute is ever paid for
// and no invocation is ever cold.
type Oracle struct {
	name    string
	highest []int
}

// NewOracle builds the hindsight-ideal entrant.
func NewOracle(name string) *Oracle { return &Oracle{name: name} }

// Name implements ShadowEntrant.
func (o *Oracle) Name() string { return o.name }

// Register implements ShadowEntrant.
func (o *Oracle) Register(fn, fam, numVariants int) {
	o.highest = append(o.highest, numVariants-1)
}

// Retire implements ShadowEntrant.
func (o *Oracle) Retire(fn int) {}

// KeepAlive implements ShadowEntrant: the oracle never holds proactively.
func (o *Oracle) KeepAlive(m, fn int) int { return NoVariant }

// Record implements ShadowEntrant.
func (o *Oracle) Record(m, fn, count int) {}

// Rests implements RestingEntrant: the retroactive charge comes from
// HindsightKeepAlive, which rides the invocation samples, not the walk.
func (o *Oracle) Rests() bool { return true }

// HindsightKeepAlive implements HindsightEntrant.
func (o *Oracle) HindsightKeepAlive(m, fn int) int { return o.highest[fn] }

var (
	_ RestingEntrant   = (*FixedWindow)(nil)
	_ RestingEntrant   = (*Never)(nil)
	_ RestingEntrant   = (*Oracle)(nil)
	_ HindsightEntrant = (*Oracle)(nil)
)
