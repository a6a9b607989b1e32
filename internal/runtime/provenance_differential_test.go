package runtime

// Provenance differential harness: the decision provenance recorder
// consumes only barrier-serialized samples, so its per-function decision
// rings must be reflect.DeepEqual across the serial and epoch
// runtimes — under sequential and per-function-goroutine replay, with and
// without churn. The sampled tracer's recorded-trace *count* is a pure
// function of the Invoke attempt count, so it must also agree across
// modes (contents legitimately differ under parallel interleaving). CI's
// 'Differential|Sharded' -race regex picks this suite up.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// provenanceStride is the 1-in-K sampling period the differential replays
// run with; deliberately not a divisor of anything round.
const provenanceStride = 7

// TestDifferentialProvenanceRings replays the azure-like workload through
// the PULSE controller in every runtime mode with a shared provenance
// recorder observing both layers (the pulsed deployment shape) and a
// stride-sampling tracer on the Invoke path. The serial sequential replay
// is ground truth: every other mode must produce DeepEqual decision rings
// and the identical sampled-trace count.
func TestDifferentialProvenanceRings(t *testing.T) {
	cat := models.PaperCatalog()
	wl := runtimeWorkloads(t)[0]
	asg := make(models.Assignment, len(wl.tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	names := identity.DefaultNames(len(asg))

	run := func(mode string, parallel bool) (map[string][]provenance.Decision, provenance.TracerStats) {
		rec, err := provenance.NewRecorder(provenance.RecorderConfig{
			Catalog: cat, Assignment: asg, Names: names, Window: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		tracer := provenance.NewTracer(provenance.TracerConfig{Stride: provenanceStride})
		p, err := core.New(core.Config{Catalog: cat, Assignment: asg, Observer: rec})
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{
			Catalog:    cat,
			Assignment: asg,
			Policy:     p,
			Clock:      NewManualClock(time.Unix(0, 0)),
			Observer:   rec,
			Mode:       mode,
			Tracer:     tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		replayCapture(t, r, wl.tr, parallel)
		return rec.Rings(), tracer.Stats()
	}

	serialRings, serialTracer := run(ModeSerial, false)

	// The ground truth must be non-trivial, or DeepEqual proves nothing.
	decisions, planned := 0, 0
	for _, ring := range serialRings {
		decisions += len(ring)
		for _, d := range ring {
			if d.PlannedAt >= 0 && d.Prob > 0 {
				planned++
			}
		}
	}
	if decisions == 0 || planned == 0 {
		t.Fatalf("serial replay recorded %d decisions (%d plan-backed); the workload exercises nothing", decisions, planned)
	}
	if serialTracer.Sampled == 0 || serialTracer.Sampled != serialTracer.Attempts/provenanceStride {
		t.Fatalf("serial tracer %+v: want floor(attempts/%d) sampled", serialTracer, provenanceStride)
	}

	for _, cmp := range []struct {
		name     string
		mode     string
		parallel bool
	}{
		{"epoch-parallel", ModeEpoch, true},
		{"epoch-sequential", ModeEpoch, false},
	} {
		rings, tr := run(cmp.mode, cmp.parallel)
		if !reflect.DeepEqual(serialRings, rings) {
			for name := range serialRings {
				if !reflect.DeepEqual(serialRings[name], rings[name]) {
					t.Errorf("%s: decision ring for %q diverges:\nserial: %+v\n%s: %+v",
						cmp.name, name, serialRings[name], cmp.name, rings[name])
					break
				}
			}
		}
		if tr.Attempts != serialTracer.Attempts || tr.Sampled != serialTracer.Sampled {
			t.Errorf("%s: tracer counts diverge: %d/%d attempts, %d/%d sampled",
				cmp.name, tr.Attempts, serialTracer.Attempts, tr.Sampled, serialTracer.Sampled)
		}
	}
}

// TestDifferentialProvenanceChurn repeats the ring-equality proof under
// online registration and deregistration: identity-keyed rings must carry
// decisions across a name's re-registration identically in every mode —
// and identically to the cluster engine replaying the same trace, since the
// rings hold exactly the samples the sparse KeepAlive contract delivers,
// and that stream is producer-independent. It ends at the API: a minute a
// function spent resting has no ring entry and /why?minute= says so.
func TestDifferentialProvenanceChurn(t *testing.T) {
	cat := models.PaperCatalog()
	tr := churnRuntimeWorkload(t)
	policies, names, initAsg := churnRuntimePolicies(t, cat, tr)
	mkPolicy := policies["pulse"]
	newRecorder := func() *provenance.Recorder {
		rec, err := provenance.NewRecorder(provenance.RecorderConfig{
			Catalog: cat, Assignment: initAsg, Names: names, Window: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	run := func(mode string, parallel bool) (map[string][]provenance.Decision, provenance.TracerStats) {
		rec := newRecorder()
		tracer := provenance.NewTracer(provenance.TracerConfig{Stride: provenanceStride})
		r, err := New(Config{
			Catalog:    cat,
			Assignment: initAsg,
			Names:      names,
			Policy:     mkPolicy(rec),
			Clock:      NewManualClock(time.Unix(0, 0)),
			Observer:   rec,
			Mode:       mode,
			Tracer:     tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		replayChurn(t, r, tr, parallel)
		return rec.Rings(), tracer.Stats()
	}

	serialRings, serialTracer := run(ModeSerial, false)
	if len(serialRings) <= len(names) {
		t.Fatalf("churn replay tracked %d identities from %d initial: no arrivals exercised", len(serialRings), len(names))
	}
	for _, cmp := range []struct {
		name     string
		mode     string
		parallel bool
	}{
		{"epoch-sequential", ModeEpoch, false},
		{"epoch-parallel", ModeEpoch, true},
	} {
		rings, trc := run(cmp.mode, cmp.parallel)
		if !reflect.DeepEqual(serialRings, rings) {
			t.Errorf("%s: churn decision rings diverge (%d vs %d identities)", cmp.name, len(serialRings), len(rings))
		}
		if trc.Attempts != serialTracer.Attempts || trc.Sampled != serialTracer.Sampled {
			t.Errorf("%s: tracer counts diverge under churn: %d/%d attempts, %d/%d sampled",
				cmp.name, trc.Attempts, serialTracer.Attempts, trc.Sampled, serialTracer.Sampled)
		}
	}

	// The cluster engine, same trace, same recorder wiring.
	asg := make(models.Assignment, len(tr.Functions))
	for i := range asg {
		asg[i] = i % len(cat.Families)
	}
	engineRec := newRecorder()
	enginePolicy := mkPolicy(engineRec)
	if _, err := cluster.Run(cluster.Config{
		Trace: tr, Catalog: cat, Assignment: asg, Cost: cluster.DefaultCostModel(), Observer: engineRec,
	}, enginePolicy); err != nil {
		t.Fatal(err)
	}
	enginePolicy.(io.Closer).Close()
	if engineRings := engineRec.Rings(); !reflect.DeepEqual(serialRings, engineRings) {
		for name := range serialRings {
			if !reflect.DeepEqual(serialRings[name], engineRings[name]) {
				t.Errorf("engine: decision ring for %q diverges:\nserial: %+v\nengine: %+v", name, serialRings[name], engineRings[name])
				break
			}
		}
	}

	// The new semantics must be visible: rings skip resting minutes, so some
	// ring has a gap — and /why answers a minute inside it as resting
	// instead of 404, while the recorded minutes around it stay real.
	var gapName string
	var gapMinute int
	for name, ring := range serialRings {
		for i := 1; i < len(ring); i++ {
			if ring[i].Minute > ring[i-1].Minute+1 {
				gapName, gapMinute = name, ring[i-1].Minute+1
			}
		}
	}
	if gapName == "" {
		t.Fatal("no ring skips a minute: the workload never rests, or the recorder still stores resting minutes")
	}
	pol := mkPolicy(engineRec)
	rt, err := New(Config{Catalog: cat, Assignment: initAsg, Names: names, Policy: pol, Clock: NewManualClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	api, err := NewAPI(rt)
	if err != nil {
		t.Fatal(err)
	}
	api.AttachProvenance(engineRec)
	why := func(minute int) (int, provenance.Explanation) {
		w := httptest.NewRecorder()
		api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/why?fn=%s&minute=%d", gapName, minute), nil))
		var ex provenance.Explanation
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil {
				t.Fatal(err)
			}
		}
		return w.Code, ex
	}
	if code, ex := why(gapMinute); code != http.StatusOK || len(ex.Decisions) != 1 ||
		!ex.Decisions[0].Resting || ex.Decisions[0].Minute != gapMinute || ex.Decisions[0].Chosen != -1 {
		t.Errorf("/why on resting minute %d of %q: status %d, %+v; want one resting decision", gapMinute, gapName, code, ex.Decisions)
	}
	if code, ex := why(gapMinute - 1); code != http.StatusOK || len(ex.Decisions) != 1 || ex.Decisions[0].Resting {
		t.Errorf("/why on recorded minute %d of %q: status %d, %+v; want the recorded decision", gapMinute-1, gapName, code, ex.Decisions)
	}
	if code, _ := why(tr.Horizon + 5); code != http.StatusNotFound {
		t.Errorf("/why on a minute not yet closed: status %d, want 404", code)
	}
}

// TestInvokeTracerDisabledZeroAllocs pins the cost of *carrying* a tracer:
// with sampling disabled (stride 0), Invoke must stay allocation-free in
// every mode — the disabled check is one atomic load. Run by the CI alloc
// job.
func TestInvokeTracerDisabledZeroAllocs(t *testing.T) {
	cat, asg := testSetup(t)
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			pol := &parityPolicy{cat: cat, asg: asg}
			tracer := provenance.NewTracer(provenance.TracerConfig{})
			r, err := New(Config{
				Catalog:    cat,
				Assignment: asg,
				Policy:     pol,
				Clock:      NewManualClock(time.Unix(0, 0)),
				Mode:       mode,
				Tracer:     tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.Invoke(0); err != nil { // warm the path
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(1000, func() {
				if _, err := r.Invoke(0); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s Invoke with disabled tracer allocates %v/op, want 0", mode, allocs)
			}
			if st := tracer.Stats(); st.Attempts != 0 {
				t.Errorf("disabled tracer counted %d attempts", st.Attempts)
			}
		})
	}
}

// TestStepProvenanceIdleMinuteZeroAllocs pins provenance recording on idle
// minutes: once each function's ring exists, a whole Step — harvest,
// policy, keep-alive samples into the recorder, minute rollup, step
// self-sample — allocates nothing, in every mode. Run by the CI alloc job.
func TestStepProvenanceIdleMinuteZeroAllocs(t *testing.T) {
	cat, asg := testSetup(t)
	names := identity.DefaultNames(len(asg))
	for _, mode := range []string{ModeSerial, ModeEpoch} {
		t.Run(mode, func(t *testing.T) {
			rec, err := provenance.NewRecorder(provenance.RecorderConfig{
				Catalog: cat, Assignment: asg, Names: names, Window: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !telemetry.WantsSelf(rec) {
				t.Fatal("recorder does not register as a self observer")
			}
			pol := &parityPolicy{cat: cat, asg: asg}
			r, err := New(Config{
				Catalog:    cat,
				Assignment: asg,
				Policy:     pol,
				Clock:      NewManualClock(time.Unix(0, 0)),
				Observer:   rec,
				Mode:       mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// Warm: rings grow on demand up to the window (and the policy
			// allocates its buffer); once they wrap, steady state is flat.
			for i := 0; i < 16+3; i++ {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(500, func() {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s idle-minute Step with recorder attached allocates %v/op, want 0", mode, allocs)
			}
			ex, err := rec.Explain(names[0], 1)
			if err != nil || len(ex.Decisions) != 1 {
				t.Fatalf("recorder captured nothing: %+v, %v", ex, err)
			}
		})
	}
}
