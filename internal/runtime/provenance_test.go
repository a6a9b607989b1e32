package runtime

// Allocation pins for the provenance layer on the serving path. That the
// decision rings and the tracer counts agree across serving modes, with the
// engine and under churn, is internal/core's scenario harness.

import (
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/identity"
	"github.com/pulse-serverless/pulse/internal/provenance"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// TestInvokeTracerDisabledZeroAllocs pins the cost of *carrying* a tracer:
// with sampling disabled (stride 0), Invoke must stay allocation-free in
// every mode — the disabled check is one field read. Run by the CI alloc
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
