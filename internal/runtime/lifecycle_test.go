package runtime

// Serving-path checks outside the scenario harness (internal/core's
// scenario_test.go, which holds the runtime to the engine and the serial
// mode to the epoch one): the retired-function failure mode.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/models"
)

// TestChurnInvokeDeregistered pins the failure mode of serving a retired
// function: a client error wrapping ErrDeregistered, never a panic, and
// re-registering the name issues a fresh cold slot.
func TestChurnInvokeDeregistered(t *testing.T) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1}
	p, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: p, Clock: NewManualClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Invoke(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("fn-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Invoke(0); !errors.Is(err, ErrDeregistered) {
		t.Fatalf("invoking deregistered slot: err = %v, want ErrDeregistered", err)
	}
	if err := r.Deregister("fn-0"); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("double deregister: err = %v, want ErrUnknownFunction", err)
	}
	if _, err := r.Invoke(99); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("out-of-range invoke: err = %v, want ErrUnknownFunction", err)
	}
	slot, err := r.Register("fn-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slot != len(asg) {
		t.Fatalf("re-registered fn-0 got slot %d, want fresh slot %d", slot, len(asg))
	}
	inv, err := r.Invoke(slot)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Cold {
		t.Error("first invocation of a re-registered function was warm, want cold by construction")
	}
	if got, want := r.NumActive(), 2; got != want {
		t.Errorf("NumActive = %d, want %d", got, want)
	}
	if n, ok := r.LookupFunction("fn-0"); !ok || n != slot {
		t.Errorf("LookupFunction(fn-0) = %d, %v; want %d, true", n, ok, slot)
	}
}

// undeadPolicy keeps every slot alive, retired ones included: it breaks
// DynamicPolicy's rule that a tombstoned slot decides NoVariant.
type undeadPolicy struct{ parityPolicy }

func (p *undeadPolicy) RegisterFunction(string, int) (int, error) {
	return 0, errors.New("undead: no registration")
}
func (p *undeadPolicy) DeregisterFunction(string) error { return nil }

// TestStepRejectsKeptAliveTombstone: the runtime holds its policy to the
// engine's tombstone check. Keeping a deregistered slot alive is a policy
// bug, so the Step that applies it panics naming the slot, where the
// engine returns the same error.
func TestStepRejectsKeptAliveTombstone(t *testing.T) {
	cat := models.PaperCatalog()
	asg := models.Assignment{0, 1}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: &undeadPolicy{parityPolicy{cat: cat, asg: asg}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("fn-0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "alive for deregistered function 0 ") {
			t.Errorf("Step panicked with %q, want the tombstone check", msg)
		}
	}()
	_ = r.Step()
}
