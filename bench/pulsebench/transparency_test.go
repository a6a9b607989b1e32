package main

import (
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	pulse "github.com/pulse-serverless/pulse"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
)

// Tracing may cost time; it may never change what the system does. The
// decorators must present exactly the optional interfaces of what they wrap
// (the runtime and the controller choose code paths by type assertion), and
// a replay with them must end where a replay without them ends.

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	cat, asg := pulsedAssignment()
	tr := newTracer()
	h := tr.hooks()
	type pair struct{ inner, outer any }
	var pairs []pair
	spy := hooks{
		observer: func(layer string, o telemetry.Observer) telemetry.Observer {
			d := h.observer(layer, o)
			pairs = append(pairs, pair{o, d})
			return d
		},
		policy: func(p *core.Pulse) cluster.Policy {
			d := h.policy(p)
			pairs = append(pairs, pair{p, d})
			return d
		},
		entrant: func(e tournament.ShadowEntrant) tournament.ShadowEntrant {
			d := h.entrant(e)
			pairs = append(pairs, pair{e, d})
			return d
		},
	}
	asm, err := buildAssembly(fullFeatures(), cat, asg, spy)
	if err != nil {
		t.Fatal(err)
	}
	defer asm.close()
	if len(pairs) != 4+1+3 {
		t.Fatalf("decorated %d boundaries, want 4 observers + the policy + 3 entrants", len(pairs))
	}
	for _, p := range pairs {
		checks := map[string][2]bool{}
		{
			_, a := p.inner.(cluster.ActiveSetPolicy)
			_, b := p.outer.(cluster.ActiveSetPolicy)
			checks["cluster.ActiveSetPolicy"] = [2]bool{a, b}
		}
		{
			_, a := p.inner.(cluster.DynamicPolicy)
			_, b := p.outer.(cluster.DynamicPolicy)
			checks["cluster.DynamicPolicy"] = [2]bool{a, b}
		}
		{
			_, a := p.inner.(telemetry.SelfObserver)
			_, b := p.outer.(telemetry.SelfObserver)
			checks["telemetry.SelfObserver"] = [2]bool{a, b}
		}
		{
			_, a := p.inner.(telemetry.LifecycleObserver)
			_, b := p.outer.(telemetry.LifecycleObserver)
			checks["telemetry.LifecycleObserver"] = [2]bool{a, b}
		}
		{
			_, a := p.inner.(tournament.HindsightEntrant)
			_, b := p.outer.(tournament.HindsightEntrant)
			checks["tournament.HindsightEntrant"] = [2]bool{a, b}
		}
		{
			_, a := p.inner.(io.Closer)
			_, b := p.outer.(io.Closer)
			checks["io.Closer"] = [2]bool{a, b}
		}
		for iface, has := range checks {
			if has[0] != has[1] {
				t.Errorf("%T implements %s: %t; decorated: %t", p.inner, iface, has[0], has[1])
			}
		}
	}
	// The alert engine is the chain's io.Closer and the accountant its
	// non-self member: both shapes must have come through.
	var sawCloser, sawNonSelf bool
	for _, p := range pairs {
		if _, ok := p.inner.(telemetry.Observer); ok {
			_, c := p.outer.(io.Closer)
			_, s := p.outer.(telemetry.SelfObserver)
			sawCloser = sawCloser || c
			sawNonSelf = sawNonSelf || !s
		}
	}
	if !sawCloser || !sawNonSelf {
		t.Errorf("expected a closing and a non-self-observing chain member (closer %t, non-self %t)", sawCloser, sawNonSelf)
	}
}

// replayLog is everything a replay decided.
type replayLog struct {
	outcome   scaleOutcome
	decisions [][]int // per minute: every slot's kept-alive variant
}

func replay(t *testing.T, tr *tracer, population, minutes int) replayLog {
	t.Helper()
	cat := pulse.Catalog()
	asg := models.RandomAssignment(rand.New(rand.NewSource(5)), cat, population)
	asm, err := buildAssembly(fullFeatures(), cat, asg, tr.hooks())
	if err != nil {
		t.Fatal(err)
	}
	defer asm.close()
	st := &scaleStepper{rt: asm.rt, sched: newSchedule(5, population), family: asg, variants: variantSets(cat)}
	var log replayLog
	for st.minute < minutes {
		if _, err := st.invokeMinute(nil, nil); err != nil {
			t.Fatal(err)
		}
		peaks := asm.controller.PeakMinutes()
		t0 := time.Now()
		d, err := st.step()
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			tr.endMinute(st.minute-1, t0, t0.Add(d), asm.controller.PeakMinutes() > peaks)
		}
		alive := make([]int, population)
		for fn := range alive {
			if alive[fn], err = asm.rt.AliveVariant(fn); err != nil {
				t.Fatal(err)
			}
		}
		log.decisions = append(log.decisions, alive)
	}
	log.outcome = scaleOutcome{asm.rt.Stats(), asm.controller.PeakMinutes(), asm.controller.TotalDowngrades()}
	return log
}

func TestDecoratorsDoNotChangeTheReplay(t *testing.T) {
	const population, minutes = 1500, 300
	bare := replay(t, nil, population, minutes)
	tr := newTracer()
	traced := replay(t, tr, population, minutes)
	if bare.outcome != traced.outcome {
		t.Errorf("outcomes differ:\n bare   %+v\n traced %+v", bare.outcome, traced.outcome)
	}
	if !reflect.DeepEqual(bare.decisions, traced.decisions) {
		for m := range bare.decisions {
			if !reflect.DeepEqual(bare.decisions[m], traced.decisions[m]) {
				t.Fatalf("decisions first differ at minute %d", m)
			}
		}
	}
	if bare.outcome.peakMinutes == 0 || bare.outcome.downgrades == 0 {
		t.Errorf("the replay never reached Algorithm 2 (%d peak minutes, %d downgrades): it proves nothing about that path",
			bare.outcome.peakMinutes, bare.outcome.downgrades)
	}

	// And the oracle the scale100k workload uses agrees with both.
	cat := pulse.Catalog()
	asg := models.RandomAssignment(rand.New(rand.NewSource(5)), cat, population)
	want, err := scaleOracle(cat, asg, newSchedule(5, population), minutes)
	if err != nil {
		t.Fatal(err)
	}
	if want != bare.outcome {
		t.Errorf("observer-less serial oracle differs:\n chain  %+v\n oracle %+v", bare.outcome, want)
	}

	// The trace of that replay: one runtime.step root per minute, every
	// child inside a parent that exists, and children that account for no
	// more than their parent (10 % slack for the scaled per-slot samples).
	byID := map[int64]span{}
	children := map[int64]int64{}
	roots := 0
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			if s.Name == "runtime.step" {
				roots++
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Trace != s.Trace {
			t.Fatalf("span %d (%s) is in trace %d, its parent in %d", s.ID, s.Name, s.Trace, p.Trace)
		}
		children[s.Parent] += s.End - s.Start
	}
	if roots != minutes {
		t.Errorf("%d runtime.step roots for %d minutes", roots, minutes)
	}
	var stepTotal, stepChildren int64
	for id, sum := range children {
		if p := byID[id]; p.Name == "runtime.step" {
			stepTotal += p.End - p.Start
			stepChildren += sum
		}
	}
	if stepChildren > stepTotal*11/10 {
		t.Errorf("children of runtime.step account for %d ns of its %d ns", stepChildren, stepTotal)
	}
}
