package core

// The reference the differential tests hold the controller to: a literal
// Algorithm 2 and a per-function controller that walk every slot every
// minute, built from NewHistory, Schedule and NewPeakDetector only — no plan
// store, active set, incremental priority extrema or shard pool.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// refOptimizer is Algorithm 2 as the paper prints it: every iteration
// min–max normalizes the whole priority array (line 4), computes Uv for
// every downgradable kept-alive model in function order (lines 5–8) and
// takes the first model with the strictly lowest Uv (line 9).
type refOptimizer struct {
	cat             *models.Catalog
	family          []int
	counts          []float64
	step            DowngradeStep
	disablePriority bool
	rng             *rand.Rand // non-nil: the random-victim strawman
}

func (r *refOptimizer) memMB(fn, vi int) float64 {
	if vi < 0 {
		return 0
	}
	return r.cat.Families[r.family[fn]].Variants[vi].MemoryMB
}

func (r *refOptimizer) keptAliveMB(decisions []int) (total float64) {
	for fn, vi := range decisions {
		total += r.memMB(fn, vi)
	}
	return total
}

func (r *refOptimizer) flatten(decisions []int, ip []float64, target float64) (applied []Downgrade) {
	for kam := r.keptAliveMB(decisions); kam > target; {
		lo, hi := slices.Min(r.counts), slices.Max(r.counts)
		var cands []Downgrade
		for fn, vi := range decisions {
			if vi < 0 || (vi == 0 && r.step == StepByOne) {
				continue
			}
			d := Downgrade{Function: fn, FromVariant: vi, ToVariant: vi - 1, Ip: min(max(ip[fn], 0), 1)}
			d.Ai, _ = r.cat.Families[r.family[fn]].AccuracyImprovement(vi)
			if hi > lo && !r.disablePriority {
				d.Pr = (r.counts[fn] - lo) / (hi - lo)
			}
			if r.step == StepEvict {
				d.ToVariant = -1
			}
			d.Uv = d.Ai + d.Pr + d.Ip
			cands = append(cands, d)
		}
		if len(cands) == 0 {
			break
		}
		best := 0
		for i := range cands {
			if cands[i].Uv < cands[best].Uv {
				best = i
			}
		}
		if r.rng != nil {
			best = r.rng.Intn(len(cands))
		}
		d := cands[best]
		kam -= r.memMB(d.Function, d.FromVariant) - r.memMB(d.Function, d.ToVariant)
		decisions[d.Function] = d.ToVariant
		r.counts[d.Function]++
		applied = append(applied, d)
	}
	return applied
}

// refFunction is one function of the reference controller: its own History
// and a window+1 minute plan ring (cell minute%len; Minute −1 = empty).
type refFunction struct {
	name   string
	live   bool
	hist   *History
	ring   []PlanEntry
	expiry int // last minute the ring's plan covers
}

func (f *refFunction) clearRing() {
	for i := range f.ring {
		f.ring[i].Minute = -1
	}
}

// refController is the PULSE controller one function at a time. cfg must
// carry an Observer; Names and Shards are ignored.
type refController struct {
	cfg      Config
	fns      []*refFunction
	opt      refOptimizer
	detector *PeakDetector
	out      []int
	ip       []float64

	totalDowngrades, peakMinutes int
	inPeak                       bool
}

func newRefController(cfg Config) *refController {
	cfg = cfg.withDefaults()
	r := &refController{cfg: cfg, opt: refOptimizer{cat: cfg.Catalog, step: cfg.Step, disablePriority: cfg.DisablePriorityTerm}}
	r.detector, _ = NewPeakDetector(cfg.KaMThreshold, cfg.LocalWindow, cfg.PriorMode)
	for fn, name := range identity.DefaultNames(len(cfg.Assignment)) {
		r.register(name, cfg.Assignment[fn])
	}
	return r
}

func (r *refController) register(name string, family int) int {
	h, _ := NewHistory(r.cfg.LocalWindow)
	f := &refFunction{name: name, live: true, hist: h, ring: make([]PlanEntry, r.cfg.Window+1)}
	f.clearRing()
	r.fns = append(r.fns, f)
	r.opt.family = append(r.opt.family, family)
	r.opt.counts = append(r.opt.counts, 0)
	r.out = append(r.out, cluster.NoVariant)
	r.ip = append(r.ip, 0)
	return len(r.fns) - 1
}

// deregister tombstones the named function: no plan, no priority count, and
// never recorded again.
func (r *refController) deregister(name string) {
	for fn, f := range r.fns {
		if f.live && f.name == name {
			f.live = false
			f.clearRing()
			r.opt.counts[fn] = 0
		}
	}
}

func (r *refController) KeepAlive(t int) []int {
	for fn, f := range r.fns {
		if f.expiry < t {
			f.clearRing() // the plan drained: its stale cells go with it
		}
		r.out[fn], r.ip[fn] = cluster.NoVariant, 0
		if c := f.ring[t%len(f.ring)]; c.Minute == t {
			r.out[fn], r.ip[fn] = c.Variant, c.Prob
		}
	}
	kam, obs := r.opt.keptAliveMB(r.out), r.cfg.Observer
	peak := r.detector.IsPeak(kam)
	if peak {
		r.peakMinutes++
		target := r.detector.FlattenTarget()
		downs := r.opt.flatten(r.out, r.ip, target)
		r.totalDowngrades += len(downs)
		if !r.inPeak {
			obs.ObservePeak(telemetry.PeakSample{Minute: t, Enter: true, KeepAliveMB: kam,
				PriorMB: r.detector.PriorKaM(), TargetMB: target, Downgrades: len(downs)})
		}
		for _, d := range downs {
			obs.ObserveDowngrade(telemetry.DowngradeSample{Minute: t, Function: d.Function,
				FromVariant: d.FromVariant, ToVariant: d.ToVariant, Ai: d.Ai, Pr: d.Pr, Ip: d.Ip})
		}
	} else if r.inPeak {
		obs.ObservePeak(telemetry.PeakSample{Minute: t, KeepAliveMB: kam,
			PriorMB: r.detector.PriorKaM(), TargetMB: r.detector.FlattenTarget()})
	}
	r.inPeak = peak
	if err := r.detector.Record(r.opt.keptAliveMB(r.out)); err != nil {
		panic(err)
	}
	return r.out
}

func (r *refController) RecordInvocations(t int, counts []int) {
	for fn, f := range r.fns {
		if counts[fn] == 0 || !f.live {
			continue
		}
		if err := f.hist.Record(t); err != nil {
			panic(err)
		}
		probs := f.hist.Probabilities(r.cfg.Window, r.cfg.Blend)
		sched, err := Schedule(probs, r.cfg.Technique, r.cfg.Catalog.Families[r.opt.family[fn]].NumVariants())
		if err != nil {
			panic(err)
		}
		for d := 1; d <= r.cfg.Window; d++ {
			f.ring[(t+d)%len(f.ring)] = PlanEntry{Minute: t + d, Variant: sched[d], Prob: probs[d]}
		}
		f.expiry = t + r.cfg.Window
		r.cfg.Observer.ObserveSchedule(telemetry.ScheduleSample{Minute: t, Function: fn, Plan: sched[1:], Probs: probs[1:]})
	}
}

// Snapshot renders the reference state in the controller's snapshot schema.
func (r *refController) Snapshot() PulseSnapshot {
	s := PulseSnapshot{
		Version: SnapshotVersion, Window: r.cfg.Window, LocalWindow: r.cfg.LocalWindow,
		KaMThreshold: r.cfg.KaMThreshold, Technique: r.cfg.Technique.Name(),
		Detector: r.detector.Snapshot(), TotalDowngrades: r.totalDowngrades, PeakMinutes: r.peakMinutes,
	}
	for fn, f := range r.fns {
		if !f.live {
			continue
		}
		fs := FunctionSnapshot{Name: f.name, Family: r.opt.family[fn], History: f.hist.Snapshot(), PriorityCount: r.opt.counts[fn]}
		for _, c := range f.ring {
			if c.Minute >= 0 {
				fs.Plans = append(fs.Plans, c)
			}
		}
		s.Functions = append(s.Functions, fs)
	}
	return s
}

// TestFlattenMatchesReferenceAlgorithm2 holds the one production Algorithm 2
// loop (incremental normAt over a slot list) to the literal reference. The
// twins share every input, so priority state carries across calls on both:
// random inputs with registrations and retirements in between, for every
// downgrade step, without the priority term, and with random victims.
func TestFlattenMatchesReferenceAlgorithm2(t *testing.T) {
	cat := models.PaperCatalog()
	type twins struct {
		g   *GlobalOptimizer
		ref *refOptimizer
	}
	newTwins := func(t *testing.T, asg models.Assignment, step DowngradeStep, disablePriority bool, seed int64) twins {
		g, err := NewGlobalOptimizer(cat, asg, step, disablePriority)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refOptimizer{cat: cat, family: slices.Clone(asg), counts: make([]float64, len(asg)), step: step, disablePriority: disablePriority}
		if seed != 0 {
			g.UseRandomSelection(seed)
			ref.rng = rand.New(rand.NewSource(seed))
		}
		return twins{g, ref}
	}
	grow := func(tw twins, family int) {
		tw.g.grow(family)
		tw.ref.family, tw.ref.counts = append(tw.ref.family, family), append(tw.ref.counts, 0)
	}
	retire := func(tw twins, fn int) {
		tw.g.retire(fn)
		tw.ref.counts[fn] = 0
	}
	// flatten requires the same kept-alive memory, decisions, downgrades
	// (terms included) and priority counts from both twins.
	flatten := func(t *testing.T, tw twins, label string, decisions []int, ip []float64, target float64) []Downgrade {
		t.Helper()
		want := slices.Clone(decisions)
		if kam, err := tw.g.KeptAliveMemoryMB(decisions); err != nil || kam != tw.ref.keptAliveMB(want) {
			t.Fatalf("%s: kept-alive memory %v (%v), reference %v", label, kam, err, tw.ref.keptAliveMB(want))
		}
		got, err := tw.g.Flatten(decisions, ip, target)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if wantDowns := tw.ref.flatten(want, ip, target); !reflect.DeepEqual(got, wantDowns) {
			t.Fatalf("%s: downgrades diverge\n got %+v\nwant %+v", label, got, wantDowns)
		}
		if !reflect.DeepEqual(decisions, want) || !reflect.DeepEqual(tw.g.Priority().counts, tw.ref.counts) {
			t.Fatalf("%s: decisions %v priorities %v, reference %v %v", label, decisions, tw.g.Priority().counts, want, tw.ref.counts)
		}
		return got
	}

	for _, step := range []DowngradeStep{StepByOne, StepByOneEvict, StepEvict} {
		for _, mode := range []struct {
			name            string
			disablePriority bool
			seed            int64
		}{{"uv", false, 0}, {"nopriority", true, 0}, {"random", false, 11}} {
			t.Run(fmt.Sprintf("step=%d/%s", step, mode.name), func(t *testing.T) {
				tw := newTwins(t, uniformAssignment(cat, 9), step, mode.disablePriority, mode.seed)
				rng := rand.New(rand.NewSource(int64(step) + 3))
				downgrades := 0
				for round := 0; round < 300; round++ {
					switch r := rng.Float64(); {
					case r < 0.08:
						grow(tw, rng.Intn(len(cat.Families)))
					case r < 0.2:
						retire(tw, rng.Intn(len(tw.ref.counts)))
					}
					decisions := make([]int, len(tw.ref.counts))
					ip := make([]float64, len(decisions))
					for fn := range decisions {
						decisions[fn] = rng.Intn(cat.Families[tw.ref.family[fn]].NumVariants()+1) - 1
						ip[fn] = rng.Float64()*1.2 - 0.1 // the Ip term clamps to [0,1]
					}
					target := tw.ref.keptAliveMB(decisions) * (rng.Float64()*1.3 - 0.2)
					downgrades += len(flatten(t, tw, fmt.Sprintf("round %d", round), decisions, ip, target))
				}
				if downgrades < 300 {
					t.Fatalf("only %d downgrades compared", downgrades)
				}
			})
		}
	}

	// Adversarial: counts start equal and every function has the same Ai and
	// Ip, so Pr alone orders the victims and each downgrade moves an extremum
	// — the first bump creates a unique max holder, the last one before the
	// counts level again removes the unique min holder. Between peaks a
	// unique max holder retires or a fresh unique min holder registers.
	t.Run("witness-churn", func(t *testing.T) {
		tw := newTwins(t, models.Assignment{0, 0, 0}, StepByOneEvict, false, 0)
		top := cat.Families[0].NumVariants() - 1
		holding := func(lone int) []int { // every function (lone < 0) or just one at its top variant
			d := make([]int, len(tw.ref.counts))
			for fn := range d {
				d[fn] = cluster.NoVariant
				if lone < 0 || fn == lone {
					d[fn] = top
				}
			}
			return d
		}
		for round := 0; round < 40; round++ {
			label := fmt.Sprintf("round %d", round)
			decisions := holding(-1)
			downs := flatten(t, tw, label, decisions, make([]float64, len(decisions)), -1)
			if len(downs) != len(decisions)*(top+1) {
				t.Fatalf("%s: %d downgrades, want every model evicted", label, len(downs))
			}
			switch round % 3 {
			case 0: // a lone holder takes every bump, then leaves as the unique max holder
				lone := round % len(decisions)
				flatten(t, tw, label+" lone", holding(lone), make([]float64, len(decisions)), -1)
				retire(tw, lone)
			case 1: // a fresh unique min holder
				grow(tw, 0)
			case 2:
				retire(tw, downs[len(downs)-1].Function)
			}
		}
	})
}
