package tournament_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/models"
	"github.com/pulse-serverless/pulse/internal/telemetry"
	"github.com/pulse-serverless/pulse/internal/tournament"
)

// walkHelpers counts the running arena walk helpers, of every arena, by
// their creator (a helper not yet scheduled shows no frame of its own).
func walkHelpers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by github.com/pulse-serverless/pulse/internal/tournament.newWalkPool"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// awaitNoWalkHelpers collects garbage until every unreachable arena's
// finalizer has stopped its helpers.
func awaitNoWalkHelpers(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for walkHelpers() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d walk helpers still running with no arena reachable", walkHelpers())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// An arena nobody references is finalized and its walk helpers exit, like
// the controller's shard workers: dropping an arena leaks no goroutine.
func TestArenaHelpersExitWhenUnreferenced(t *testing.T) {
	awaitNoWalkHelpers(t) // arenas earlier tests dropped
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1, 2, 0}
	func() {
		ents := productionEntrants(t, cat, false)
		a, err := tournament.NewWithWorkers(tournament.Config{Catalog: cat, Assignment: asg, Entrants: ents}, len(ents))
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 3; m++ {
			a.ObserveInvocation(telemetry.InvocationSample{Minute: m, Function: 0, Count: 1, Variant: cat.Families[0].Variants[0].Name})
			a.ObserveMinute(telemetry.MinuteSample{Minute: m})
		}
		if got, want := walkHelpers(), len(ents)-1; got != want {
			t.Fatalf("arena with %d walkers runs %d helpers, want %d", len(ents), got, want)
		}
		runtime.KeepAlive(a)
	}()
	awaitNoWalkHelpers(t)
}
