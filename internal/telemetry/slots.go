package telemetry

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The slot table: Telemetry's per-function series as plain counts in
// columns indexed by the sample's dense function slot, allocated a chunk at
// a time on the first sample naming a slot in it. A series exists once its
// count is non-zero.

const (
	chunkSlots = 512 // function slots per chunk
	// maxSlots bounds the table: a sample naming a slot at or past it (or a
	// negative one) comes from a foreign feed and is dropped, not grown for.
	maxSlots = 1 << 26
	// inlineVariants is how many variants a slot keeps inline in each of its
	// invocation and keep-alive columns, the widest family of the paper
	// catalog; more spill into Telemetry's maps.
	inlineVariants = 3
)

// chunk is the columns of chunkSlots consecutive slots. What an invocation
// writes sits together in one 192-byte row per slot: a minute invokes slots
// no sample touched for many minutes, so each is a cold read of one region.
type chunk struct {
	inv     [chunkSlots]invRow
	held    [chunkSlots]heldCol
	dg, sch [chunkSlots]uint64 // downgrades, schedules
}

// heldCol is one slot's keep-alive state: the variant it holds (a name id,
// 0 at rest), the MemMB bits that variant's gauge reads, and every variant
// it ever held (name ids, 0 past the last), each a gauge reading 0 unless
// held. A holder's minute touches this column alone.
type heldCol struct {
	bits uint64
	name uint32
	kept [inlineVariants]uint32
}

func downgradesCol(c *chunk) *[chunkSlots]uint64 { return &c.dg }
func schedulesCol(c *chunk) *[chunkSlots]uint64  { return &c.sch }

// invRow is one slot's variants and service-time histogram. The variant
// count leads, in the cache line of the first variants, since every scan of
// them reads it first.
type invRow struct {
	nvars uint8 // inline variants in use
	vars  [inlineVariants]variantCol
	svc   svcCol
}

// variantCol is one variant a slot's invocations named: its counts by start
// kind, at least one of them non-zero.
type variantCol struct {
	inv  [2]uint64 // warm, cold
	name uint32    // interned name id
}

// serviceBounds spans the catalog's service times: milliseconds of warm
// small-model execution up to tens of seconds of multi-GB cold starts.
var (
	serviceBounds = [...]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
	serviceLes    = formatBounds(serviceBounds[:])
)

// svcCol is one slot's service-time histogram.
type svcCol struct {
	n     [len(serviceBounds)]uint64 // per-bucket (non-cumulative) counts
	count uint64
	sum   float64
}

func (h *svcCol) observe(v float64, n uint64) {
	for i, ub := range serviceBounds {
		if v <= ub {
			h.n[i] += n
			break
		}
	}
	h.count += n
	h.sum += float64(v * float64(n)) // the product rounded before it is added
}

var startLabel = [2]string{"warm", "cold"}

// at returns the chunk holding slot fn and fn's index in it, allocating the
// chunk when grow is set; a nil chunk for a slot outside [0, maxSlots) or in
// a chunk never allocated. Callers hold Telemetry.mu.
func (t *Telemetry) at(fn int, grow bool) (*chunk, int) {
	if uint(fn) >= maxSlots {
		return nil, 0
	}
	ci := fn / chunkSlots
	if ci >= len(t.chunks) {
		if !grow {
			return nil, 0
		}
		t.chunks = append(t.chunks, make([]*chunk, ci+1-len(t.chunks))...)
	}
	c := t.chunks[ci]
	if c == nil && grow {
		c = new(chunk)
		t.chunks[ci] = c
	}
	return c, fn % chunkSlots
}

// variant returns slot fn's column for the variant named name, adding it on
// the first invocation that names it. Variants are matched by name, so a
// feed may send any Variant index; the catalog hands out the same string
// every time, so the comparison usually ends at the pointer. Callers hold
// Telemetry.mu.
func (t *Telemetry) variant(row *invRow, fn int, name string) *variantCol {
	vs := row.vars[:row.nvars]
	for k := range vs {
		if t.names[vs[k].name] == name {
			return &vs[k]
		}
	}
	if len(vs) < inlineVariants {
		row.nvars++
		vs = vs[:len(vs)+1]
		vs[len(vs)-1] = variantCol{name: t.intern(name)}
		return &vs[len(vs)-1]
	}
	sp := t.spill[int32(fn)]
	for k := range sp {
		if t.names[sp[k].name] == name {
			return &sp[k]
		}
	}
	sp = append(sp, variantCol{name: t.intern(name)})
	t.spill[int32(fn)] = sp
	return &sp[len(sp)-1]
}

// keep returns the id of the variant named name among those slot fn ever
// held, adding it on its first hold. Callers hold Telemetry.mu.
func (t *Telemetry) keep(h *heldCol, fn int, name string) uint32 {
	for k, id := range h.kept {
		if id == 0 {
			h.kept[k] = t.intern(name)
			return h.kept[k]
		}
		if t.names[id] == name {
			return id
		}
	}
	sp := t.keptSpill[int32(fn)]
	for _, id := range sp {
		if t.names[id] == name {
			return id
		}
	}
	id := t.intern(name)
	t.keptSpill[int32(fn)] = append(sp, id)
	return id
}

// intern returns name's id, assigning the next one on first sight.
func (t *Telemetry) intern(name string) uint32 {
	id, ok := t.nameID[name]
	if !ok {
		id = uint32(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = id
	}
	return id
}

// eachChunk calls f on every allocated chunk with the chunk's first slot,
// holding Telemetry.mu for that one call only: a render copies a chunk's
// columns under it and formats after letting go, so a sample never waits
// longer than one chunk copy.
func (t *Telemetry) eachChunk(f func(c *chunk, base int)) {
	t.mu.Lock()
	n := len(t.chunks)
	t.mu.Unlock()
	for ci := 0; ci < n; ci++ {
		t.mu.Lock()
		if c := t.chunks[ci]; c != nil {
			f(c, ci*chunkSlots)
		}
		t.mu.Unlock()
	}
}

// inOrder returns the indices of fns in the exposition order of their
// function label. That order sorts label values joined by 0xff, so a
// function's decimal string is followed by 0xff when more labels follow
// (multi) and sorts after its extensions ("1023" before "1"), and is a
// plain string otherwise, sorting before them.
func inOrder(fns []int32, multi bool) []int32 {
	keys := make([]uint64, len(fns))
	for r, fn := range fns {
		keys[r] = decimalKey(int(fn), multi)<<32 | uint64(r)
	}
	slices.Sort(keys)
	order := make([]int32, len(keys))
	for i, k := range keys {
		order[i] = int32(uint32(k))
	}
	return order
}

// decimalKey maps fn in [0, maxSlots) to a number ordered like fn's decimal
// string padded to eight places: digits count 1–10, padding 0 (a string
// before its extensions) or 11 (after them, as a trailing 0xff sorts).
func decimalKey(fn int, multi bool) uint64 {
	var buf [8]byte
	digits := strconv.AppendInt(buf[:0], int64(fn), 10)
	pad := uint64(0)
	if multi {
		pad = 11
	}
	var k uint64
	for i := 0; i < len(buf); i++ {
		d := pad
		if i < len(digits) {
			d = uint64(digits[i]-'0') + 1
		}
		k = k*12 + d
	}
	return k
}

// appendFunction appends the function label of slot fn.
func appendFunction(b []byte, fn int32) []byte {
	b = append(b, `function="`...)
	b = strconv.AppendInt(b, int64(fn), 10)
	return append(b, '"')
}

// writeInvocations renders pulse_function_invocations_total
// {function,variant,start}.
func (t *Telemetry) writeInvocations(e *expo, name string) {
	// A copy of the variants of every slot invoked: row r's are
	// vars[lo[r]:lo[r+1]].
	var (
		fns, lo []int32
		vars    []variantCol
		names   []string
	)
	t.eachChunk(func(c *chunk, base int) {
		for i := range c.inv {
			if row := &c.inv[i]; row.nvars > 0 {
				fns = append(fns, int32(base+i))
				lo = append(lo, int32(len(vars)))
				vars = append(vars, row.vars[:row.nvars]...)
				if row.nvars == inlineVariants {
					vars = append(vars, t.spill[int32(base+i)]...)
				}
			}
		}
		names = t.names // ids below len(t.names) never change
	})
	lo = append(lo, int32(len(vars)))
	// A function's series sort by variant, 0xff, start kind: the key is
	// built in keys, since a name may itself hold any byte.
	type series struct {
		variant string
		start   int
		lo, hi  int // the sort key, keys[lo:hi]
		n       uint64
	}
	var (
		ss          []series
		keys, label []byte
	)
	for _, r := range inOrder(fns, true) {
		ss, keys = ss[:0], keys[:0]
		for _, v := range vars[lo[r]:lo[r+1]] {
			for start, n := range v.inv {
				if n == 0 {
					continue
				}
				at := len(keys)
				keys = append(append(append(keys, names[v.name]...), 0xff), startLabel[start]...)
				ss = append(ss, series{names[v.name], start, at, len(keys), n})
			}
		}
		slices.SortFunc(ss, func(a, b series) int { return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi]) })
		for _, s := range ss {
			label = appendLabel(append(appendFunction(label[:0], fns[r]), ','), "variant", s.variant)
			label = appendLabel(append(label, ','), "start", startLabel[s.start])
			e.float(name, label, float64(s.n))
		}
	}
}

// writeService renders pulse_function_service_seconds{function}.
func (t *Telemetry) writeService(e *expo, name string) {
	var (
		fns []int32
		hs  []svcCol
	)
	t.eachChunk(func(c *chunk, base int) {
		for i := range c.inv {
			if h := &c.inv[i].svc; h.count > 0 {
				fns = append(fns, int32(base+i))
				hs = append(hs, *h)
			}
		}
	})
	var label []byte
	for _, r := range inOrder(fns, false) {
		h := &hs[r]
		label = appendFunction(label[:0], fns[r])
		e.histogram(name, label, serviceLes, h.n[:], h.count, h.sum)
	}
}

// writeKeepAlive renders pulse_function_keepalive_mb{function,variant}: a
// gauge for every variant the slot ever held, reading the held MemMB for
// the variant held and 0 for the rest.
func (t *Telemetry) writeKeepAlive(e *expo, name string) {
	var (
		fns   []int32
		held  []heldCol
		spill [][]uint32 // append-only, so the ids below len never change
		names []string
	)
	t.eachChunk(func(c *chunk, base int) {
		for i, h := range c.held {
			if h.kept[0] != 0 {
				fns = append(fns, int32(base+i))
				held = append(held, h)
				spill = append(spill, t.keptSpill[int32(base+i)])
			}
		}
		names = t.names
	})
	var (
		ids   []uint32
		label []byte
	)
	for _, r := range inOrder(fns, true) {
		h := &held[r]
		ids = append(ids[:0], h.kept[:]...)
		if i := slices.Index(ids, 0); i >= 0 {
			ids = ids[:i]
		}
		ids = append(ids, spill[r]...)
		slices.SortFunc(ids, func(a, b uint32) int { return strings.Compare(names[a], names[b]) })
		for _, id := range ids {
			mb := 0.0
			if id == h.name {
				mb = math.Float64frombits(h.bits)
			}
			label = appendLabel(append(appendFunction(label[:0], fns[r]), ','), "variant", names[id])
			e.float(name, label, mb)
		}
	}
}

// writeCounts renders a per-function counter kept in the column col picks.
func (t *Telemetry) writeCounts(col func(*chunk) *[chunkSlots]uint64) func(*expo, string) {
	return func(e *expo, name string) {
		var (
			fns []int32
			ns  []uint64
		)
		t.eachChunk(func(c *chunk, base int) {
			for i, n := range col(c) {
				if n > 0 {
					fns = append(fns, int32(base+i))
					ns = append(ns, n)
				}
			}
		})
		var label []byte
		for _, r := range inOrder(fns, false) {
			label = appendFunction(label[:0], fns[r])
			e.float(name, label, float64(ns[r]))
		}
	}
}
