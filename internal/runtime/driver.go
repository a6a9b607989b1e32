package runtime

import (
	"context"
	"fmt"
	"time"

	"github.com/pulse-serverless/pulse/internal/trace"
)

// ReplayTrace drives a recorded trace through a live runtime: for each
// simulated minute it issues the trace's invocations, then Steps. It is the
// bridge between the offline workload tooling and the live runtime, and a
// cross-check that both execution paths agree (see runtime tests).
//
// The context cancels a long replay early; the runtime is left at the
// minute boundary reached.
func ReplayTrace(ctx context.Context, r *Runtime, tr *trace.Trace) error {
	if r == nil {
		return fmt.Errorf("runtime: nil runtime")
	}
	if tr == nil {
		return fmt.Errorf("runtime: nil trace")
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	if len(tr.Functions) != r.NumFunctions() {
		return fmt.Errorf("runtime: trace has %d functions, runtime %d", len(tr.Functions), r.NumFunctions())
	}
	for t := 0; t < tr.Horizon; t++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		for fn := range tr.Functions {
			for n := 0; n < tr.Functions[fn].Counts[t]; n++ {
				if _, err := r.Invoke(fn); err != nil {
					return fmt.Errorf("runtime: replay minute %d fn %d: %w", t, fn, err)
				}
			}
		}
		if err := r.Step(); err != nil {
			return fmt.Errorf("runtime: replay minute %d: %w", t, err)
		}
	}
	return nil
}

// Ticker advances the runtime once per interval until the context is
// cancelled — the production driver cmd/pulsed uses, with the interval set
// to one (possibly compressed) minute. It returns ErrClosed when the
// runtime is closed underneath it.
func Ticker(ctx context.Context, r *Runtime, interval time.Duration) error {
	if r == nil {
		return fmt.Errorf("runtime: nil runtime")
	}
	if interval <= 0 {
		return fmt.Errorf("runtime: non-positive tick interval %v", interval)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if err := r.Step(); err != nil {
				return err
			}
		}
	}
}
