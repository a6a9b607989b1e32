package predict

import (
	"testing"

	"github.com/pulse-serverless/pulse/internal/cluster"
)

func newMPC(t *testing.T) *MPCEntrant {
	t.Helper()
	cfg := DefaultMPCConfig()
	cfg.HW.SeasonLength = 60 // hourly season: the test traces are short
	e, err := NewMPCEntrant("mpc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMPCKeepsSteadyLoadWarm(t *testing.T) {
	e := newMPC(t)
	e.Register(0, 0, 3)

	// Before any observation the forecast is zero: nothing is held.
	if v := e.KeepAlive(0, 0); v != cluster.NoVariant {
		t.Fatalf("unobserved function held warm on variant %d", v)
	}

	// Steady per-minute load: once the smoother converges, the horizon
	// optimization keeps the highest variant warm.
	for m := 0; m < 120; m++ {
		e.Record(m, 0, 2)
	}
	if v := e.KeepAlive(120, 0); v != 2 {
		t.Errorf("steady load held variant %d, want highest (2)", v)
	}

	// A long-idle second slot stays dropped even while slot 0 is hot.
	e.Register(1, 0, 3)
	for m := 0; m < 120; m++ {
		e.Record(m, 1, 0)
	}
	if v := e.KeepAlive(120, 1); v != cluster.NoVariant {
		t.Errorf("idle function held warm on variant %d", v)
	}
}

func TestMPCRetireResetsForecaster(t *testing.T) {
	e := newMPC(t)
	e.Register(0, 0, 2)
	for m := 0; m < 120; m++ {
		e.Record(m, 0, 3)
	}
	if e.KeepAlive(120, 0) < 0 {
		t.Fatal("steady load not held before retirement")
	}
	e.Retire(0)
	if v := e.KeepAlive(120, 0); v != cluster.NoVariant {
		t.Errorf("retired slot still warm: %d", v)
	}
	if e.hw.seen[0] || e.hw.lastInv[0] != -1 {
		t.Error("retired forecaster slot not reset")
	}
}

func TestMPCConfigValidation(t *testing.T) {
	bad := DefaultMPCConfig()
	bad.Horizon = -1
	if _, err := NewMPCEntrant("mpc", bad); err == nil {
		t.Error("negative horizon accepted")
	}
	bad = DefaultMPCConfig()
	bad.ColdCostMinutes = 0
	if _, err := NewMPCEntrant("mpc", bad); err == nil {
		t.Error("zero cold-start cost accepted")
	}
	bad = DefaultMPCConfig()
	bad.HW.Alpha = 2
	if _, err := NewMPCEntrant("mpc", bad); err == nil {
		t.Error("out-of-range smoothing factor accepted")
	}
}
