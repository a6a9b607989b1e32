package tournament_test

// The arena's entrant protocol, pinned from the entrant's side: a recording
// entrant logs every call it receives, and a model of the documented minute
// protocol (tournament.ShadowEntrant, tournament.RestingEntrant) predicts
// each entrant's log. The model knows nothing about how the arena finds its
// live, held or invoked slots, so a stale list, a skipped slot or a
// reordered walk shows up as a log mismatch. Entrants are walked
// concurrently, so the protocol fixes each entrant's call order but not the
// interleaving across entrants: every entrant keeps a log of its own.

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
)

// call is one protocol call as an entrant saw it. n is the variant count of
// a Register and the invocation count of a Record; m is -1 where the call
// carries no minute.
type call struct {
	ent, op  string
	m, fn, n int
}

// recorder is a ShadowEntrant that holds nothing and appends every call to
// its own log. Its KeepAlive and Record calls report to overlap, when set.
type recorder struct {
	name    string
	log     *[]call
	overlap *overlap
}

func (r *recorder) Name() string { return r.name }
func (r *recorder) Register(fn, fam, nv int) {
	*r.log = append(*r.log, call{r.name, "register", -1, fn, nv})
}
func (r *recorder) Retire(fn int) { *r.log = append(*r.log, call{r.name, "retire", -1, fn, 0}) }
func (r *recorder) KeepAlive(m, fn int) int {
	r.walked()
	*r.log = append(*r.log, call{r.name, "keepalive", m, fn, 0})
	return tournament.NoVariant
}
func (r *recorder) Record(m, fn, count int) {
	r.walked()
	*r.log = append(*r.log, call{r.name, "record", m, fn, count})
}
func (r *recorder) walked() {
	if r.overlap != nil {
		r.overlap.walked()
	}
}

// overlap makes an arena's entrant walks overlap: the first walk call made
// on the feeding goroutine waits until a fork-join helper has made one, so
// that helper walks another entrant meanwhile. helped counts the walk calls
// made on helpers.
type overlap struct {
	helped atomic.Int32
	first  chan struct{} // closed at the first call on a helper
	waited bool          // read and written by the feeding goroutine only
}

func (o *overlap) walked() {
	if onHelper() {
		if o.helped.Add(1) == 1 {
			close(o.first)
		}
		return
	}
	if !o.waited {
		o.waited = true
		select {
		case <-o.first:
		case <-time.After(10 * time.Second): // check reports the miss
		}
	}
}

// restWindow is how many minutes after an invoked minute a restingRecorder
// keeps holding the slot.
const restWindow = 2

// restingRecorder is a recorder that rests (tournament.RestingEntrant) and,
// like fixed-high, holds variant 0 through restWindow minutes after each
// invoked minute, so its held set turns over.
type restingRecorder struct {
	recorder
	last map[int]int // last invoked minute per slot
}

func (r *restingRecorder) Rests() bool { return true }
func (r *restingRecorder) Retire(fn int) {
	r.recorder.Retire(fn)
	delete(r.last, fn)
}
func (r *restingRecorder) KeepAlive(m, fn int) int {
	r.recorder.KeepAlive(m, fn)
	if l, ok := r.last[fn]; ok && m <= l+restWindow {
		return 0
	}
	return tournament.NoVariant
}
func (r *restingRecorder) Record(m, fn, count int) {
	r.recorder.Record(m, fn, count)
	if count > 0 {
		r.last[fn] = m
	}
}

// protocolModel drives an arena and, beside it, the log the protocol says
// its entrants must see. An entrant whose name starts with "rest" is a
// restingRecorder, any other a recorder.
type protocolModel struct {
	t       *testing.T
	arena   *tournament.Arena
	cat     *models.Catalog
	ents    []string
	fam     []int        // family per slot, retired ones included
	live    map[int]bool // slots registered and not retired
	cnt     map[int]int  // open minute's invocations per slot
	cur     int          // open minute, -1 before the first sample
	got     [][]call     // calls each entrant received, by entrant index
	want    [][]call     // calls the protocol says each entrant must receive
	overlap *overlap     // nil with one entrant, whose walks run on the feeder

	last map[int]int  // last invoked minute per live slot (restingRecorder's rule)
	held map[int]bool // slots the resting recorders hold in the open minute
}

func resting(name string) bool { return strings.HasPrefix(name, "rest") }

func newProtocolModel(t *testing.T, entrants []string, asg models.Assignment) *protocolModel {
	t.Helper()
	d := &protocolModel{
		t: t, cat: models.PaperCatalog(), ents: entrants,
		live: map[int]bool{}, cnt: map[int]int{}, cur: -1,
		last: map[int]int{}, held: map[int]bool{},
		got: make([][]call, len(entrants)), want: make([][]call, len(entrants)),
	}
	if len(entrants) > 1 {
		d.overlap = &overlap{first: make(chan struct{})}
	}
	impls := make([]tournament.ShadowEntrant, len(entrants))
	for i, name := range entrants {
		rec := recorder{name: name, log: &d.got[i], overlap: d.overlap}
		if resting(name) {
			impls[i] = &restingRecorder{recorder: rec, last: map[int]int{}}
		} else {
			impls[i] = &rec
		}
	}
	for fn, fam := range asg {
		d.fam = append(d.fam, fam)
		d.live[fn] = true
		d.eachEntrant("register", -1, fn, d.cat.Families[fam].NumVariants())
	}
	// Enough Ps for a helper per entrant whatever GOMAXPROCS the test runs
	// under: the walks overlap (see overlap), and check counts that they did.
	if procs := runtime.GOMAXPROCS(0); procs < len(impls) {
		runtime.GOMAXPROCS(len(impls))
		t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	}
	arena, err := tournament.New(tournament.Config{Catalog: d.cat, Assignment: asg, Entrants: impls})
	if err != nil {
		t.Fatal(err)
	}
	d.arena = arena
	return d
}

func (d *protocolModel) eachEntrant(op string, m, fn, n int) {
	for i, ent := range d.ents {
		d.want[i] = append(d.want[i], call{ent, op, m, fn, n})
	}
}

func (d *protocolModel) liveAscending() []int {
	out := make([]int, 0, len(d.live))
	for fn := range d.live {
		out = append(out, fn)
	}
	sort.Ints(out)
	return out
}

// expectOpen predicts minute m's open: live slots ascending for every
// entrant; for a resting entrant only the live slots it held in m−1 or that
// were invoked in m−1 (invoked).
func (d *protocolModel) expectOpen(m int, invoked map[int]int) {
	d.cur = m
	live := d.liveAscending()
	var visit []int
	held := map[int]bool{}
	for _, fn := range live {
		if !d.held[fn] && invoked[fn] == 0 {
			continue
		}
		visit = append(visit, fn)
		if l, ok := d.last[fn]; ok && m <= l+restWindow {
			held[fn] = true
		}
	}
	d.held = held
	for i, ent := range d.ents {
		slots := live
		if resting(ent) {
			slots = visit
		}
		for _, fn := range slots {
			d.want[i] = append(d.want[i], call{ent, "keepalive", m, fn, 0})
		}
	}
}

// expectRoll predicts the clock advancing to m: every minute in between is
// closed (one Record per live slot with the minute's summed count; for a
// resting entrant, per invoked live slot) and the next one opened.
func (d *protocolModel) expectRoll(m int) {
	if d.cur < 0 {
		d.expectOpen(m, nil)
		return
	}
	for d.cur < m {
		live := d.liveAscending()
		for i, ent := range d.ents {
			for _, fn := range live {
				if d.cnt[fn] > 0 || !resting(ent) {
					d.want[i] = append(d.want[i], call{ent, "record", d.cur, fn, d.cnt[fn]})
				}
			}
		}
		for _, fn := range live {
			if d.cnt[fn] > 0 {
				d.last[fn] = d.cur
			}
		}
		invoked := d.cnt
		d.cnt = map[int]int{}
		d.expectOpen(d.cur+1, invoked)
	}
}

func (d *protocolModel) minute(m int) {
	d.expectRoll(m)
	d.arena.ObserveMinute(telemetry.MinuteSample{Minute: m})
}

func (d *protocolModel) invoke(m, fn, n int) {
	d.expectRoll(m)
	d.cnt[fn] += n
	d.arena.ObserveInvocation(telemetry.InvocationSample{
		Minute: m, Function: fn, Count: n,
		Variant: d.cat.Families[d.fam[fn]].Variants[0].Name,
	})
}

// register adds the next dense slot; registration does not advance the clock.
func (d *protocolModel) register(fam int) int {
	fn := len(d.fam)
	d.fam = append(d.fam, fam)
	d.live[fn] = true
	d.eachEntrant("register", -1, fn, d.cat.Families[fam].NumVariants())
	d.arena.ObserveRegister(telemetry.RegisterSample{Minute: d.cur, Function: fn, Family: fam})
	return fn
}

// deregister retires fn before the clock advances to m.
func (d *protocolModel) deregister(m, fn int) {
	delete(d.live, fn)
	delete(d.last, fn)
	d.eachEntrant("retire", -1, fn, 0)
	d.expectRoll(m)
	d.arena.ObserveDeregister(telemetry.DeregisterSample{Minute: m, Function: fn})
}

// check compares every entrant's log with the predicted one, call by call,
// and requires a helper to have walked an entrant when there are several.
func (d *protocolModel) check() {
	d.t.Helper()
	if d.overlap != nil && d.overlap.helped.Load() == 0 {
		d.t.Errorf("no fork-join helper walked any of %d entrants", len(d.ents))
	}
	for e, ent := range d.ents {
		got, want := d.got[e], d.want[e]
		if reflect.DeepEqual(got, want) {
			continue
		}
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w call
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				d.t.Fatalf("%s call %d: got %+v, want %+v (%d calls made, %d expected)", ent, i, g, w, len(got), len(want))
			}
		}
	}
}

// calls filters one entrant's received log.
func (d *protocolModel) calls(ent, op string, m, fn int) []call {
	var out []call
	for e, name := range d.ents {
		if name != ent {
			continue
		}
		for _, c := range d.got[e] {
			if c.op == op && c.m == m && c.fn == fn {
				out = append(out, c)
			}
		}
	}
	return out
}

// Exactly one KeepAlive at open and one Record at close per live slot,
// slots ascending within each entrant, while slots register and deregister
// between and inside minutes.
func TestArenaProtocolUnderChurn(t *testing.T) {
	d := newProtocolModel(t, []string{"first", "second", "third"}, models.Assignment{0, 1, 2, 0, 1})
	d.minute(0)
	d.invoke(0, 3, 1)
	d.register(2)
	d.minute(1)
	d.deregister(1, 2) // mid-minute: minute 1 is open and stays open
	d.deregister(1, 0) // the lowest slot
	d.invoke(1, 4, 2)
	d.register(0)
	d.minute(2)
	d.deregister(3, 6) // retire the newest slot while rolling 2 → 3
	d.register(1)
	d.register(1)
	d.minute(4)
	d.deregister(4, 7)
	d.deregister(4, 1)
	d.deregister(4, 3)
	d.minute(5)
	d.minute(6)
	d.check()

	// Spot checks in the protocol's own words, independent of the model.
	for _, ent := range d.ents {
		if n := len(d.calls(ent, "keepalive", 6, 4)); n != 1 {
			t.Errorf("%s: live slot 4 consulted %d times at the open of minute 6, want 1", ent, n)
		}
		if n := len(d.calls(ent, "record", 5, 4)); n != 1 {
			t.Errorf("%s: live slot 4 fed %d times at the close of minute 5, want 1", ent, n)
		}
	}
}

// A slot registered mid-minute gets that minute's Record but no KeepAlive
// for it; a slot retired mid-minute gets neither from then on.
func TestArenaProtocolMidMinuteLifecycle(t *testing.T) {
	d := newProtocolModel(t, []string{"only"}, models.Assignment{0, 1, 2})
	d.minute(0)
	d.minute(1)
	joined := d.register(1)
	d.invoke(1, joined, 4)
	d.deregister(1, 1)
	d.minute(2)
	d.minute(3)
	d.check()

	if n := len(d.calls("only", "keepalive", 1, joined)); n != 0 {
		t.Errorf("slot registered during minute 1 was consulted for it %d times", n)
	}
	if rec := d.calls("only", "record", 1, joined); len(rec) != 1 || rec[0].n != 4 {
		t.Errorf("slot registered during minute 1: minute-1 records = %+v, want one carrying 4", rec)
	}
	if n := len(d.calls("only", "keepalive", 2, joined)); n != 1 {
		t.Errorf("slot registered during minute 1 consulted %d times at the open of minute 2, want 1", n)
	}
	if n := len(d.calls("only", "keepalive", 1, 1)); n != 1 {
		t.Errorf("slot 1 was live at the open of minute 1: consulted %d times, want 1", n)
	}
	for m := 1; m <= 3; m++ {
		if n := len(d.calls("only", "record", m, 1)); n != 0 {
			t.Errorf("slot retired during minute 1 was fed minute %d", m)
		}
		if n := len(d.calls("only", "keepalive", m+1, 1)); n != 0 {
			t.Errorf("slot retired during minute 1 was consulted for minute %d", m+1)
		}
	}
}

// A multi-minute gap rolls every minute in between, and Record carries the
// summed count of a minute fragmented into several invocation samples.
func TestArenaProtocolGapAndFragmentedMinute(t *testing.T) {
	d := newProtocolModel(t, []string{"a", "b"}, models.Assignment{0, 1})
	d.invoke(3, 0, 2) // the first sample opens minute 3
	d.invoke(3, 1, 1)
	d.invoke(3, 0, 5)
	d.invoke(3, 0, 1)
	d.minute(9)
	d.check()

	for _, ent := range d.ents {
		if rec := d.calls(ent, "record", 3, 0); len(rec) != 1 || rec[0].n != 8 {
			t.Errorf("%s: minute 3 records for slot 0 = %+v, want one carrying 2+5+1", ent, rec)
		}
		for m := 4; m < 9; m++ {
			for fn := 0; fn < 2; fn++ {
				rec := d.calls(ent, "record", m, fn)
				if len(rec) != 1 || rec[0].n != 0 {
					t.Errorf("%s: gap minute %d slot %d records = %+v, want one carrying 0", ent, m, fn, rec)
				}
				if n := len(d.calls(ent, "keepalive", m, fn)); n != 1 {
					t.Errorf("%s: gap minute %d slot %d consulted %d times, want 1", ent, m, fn, n)
				}
			}
		}
	}
}

// Resting entrants, interleaved with dense ones, are consulted only at the
// slots they held or saw invoked in the previous minute and fed only
// non-zero counts — ascending, retired slots skipped — while held sets turn
// over, a held slot is invoked again, slots register
// and retire mid-minute, minutes fragment and the clock jumps.
func TestArenaProtocolRestingEntrants(t *testing.T) {
	d := newProtocolModel(t, []string{"dense", "rest-a", "dense-b", "rest-b"}, models.Assignment{0, 1, 2, 0, 1, 2})
	d.minute(0)
	d.invoke(0, 1, 1)
	d.invoke(0, 4, 2)
	d.invoke(1, 1, 3) // held through minute 2 and invoked again
	d.invoke(1, 1, 1)
	d.invoke(1, 5, 1)
	joined := d.register(2) // slot 6, mid-minute
	d.invoke(1, joined, 2)
	d.minute(2)
	d.deregister(2, 4) // held (invoked at 0), retired mid-minute
	d.invoke(2, 3, 1)
	d.deregister(2, 3) // invoked this minute, then retired
	d.minute(3)
	d.invoke(4, 0, 1)
	d.minute(9) // gap: holders expire inside it
	d.invoke(9, 2, 4)
	d.register(0)
	d.minute(10)
	d.minute(11)
	d.check()

	for e, log := range d.got {
		if !resting(d.ents[e]) {
			continue
		}
		for _, c := range log {
			if c.op == "record" && c.n == 0 {
				t.Errorf("%s fed a zero count: %+v", c.ent, c)
			}
			if (c.fn == 3 || c.fn == 4) && c.m >= 3 {
				t.Errorf("%s saw slot %d after it retired during minute 2: %+v", c.ent, c.fn, c)
			}
		}
	}
	for _, ent := range []string{"rest-a", "rest-b"} {
		// Slot 0 is invoked only at minute 4: held 5..6, let go at 7.
		for m := 5; m <= 7; m++ {
			if n := len(d.calls(ent, "keepalive", m, 0)); n != 1 {
				t.Errorf("%s: slot 0 consulted %d times at minute %d, want 1", ent, n, m)
			}
		}
		for m := 8; m <= 11; m++ {
			if n := len(d.calls(ent, "keepalive", m, 0)); n != 0 {
				t.Errorf("%s: slot 0, let go at minute 7, consulted at minute %d", ent, m)
			}
		}
		if n := len(d.calls(ent, "keepalive", 2, 1)); n != 1 {
			t.Errorf("%s: slot 1, held and invoked in minute 1, consulted %d times at minute 2, want 1", ent, n)
		}
		if n := len(d.calls(ent, "keepalive", 2, joined)); n != 1 {
			t.Errorf("%s: slot %d, registered and invoked in minute 1, consulted %d times at minute 2, want 1", ent, joined, n)
		}
	}
}

// onHelper reports whether the calling goroutine is a fork-join helper.
func onHelper() bool {
	buf := make([]byte, 4096)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("created by github.com/pulse-serverless/pulse/internal/forkjoin."))
}
