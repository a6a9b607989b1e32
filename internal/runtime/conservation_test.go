package runtime

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/attribution"
	"github.com/pulse-serverless/pulse/internal/cluster"
	"github.com/pulse-serverless/pulse/internal/core"
	"github.com/pulse-serverless/pulse/internal/telemetry"
)

// countingPolicy wraps a policy and sums every invocation count reported to
// RecordInvocations. The runtime serializes RecordInvocations inside Step's
// write window, so a plain int is safe; it is read only after all
// goroutines join.
type countingPolicy struct {
	cluster.Policy
	total int
}

func (p *countingPolicy) RecordInvocations(t int, counts []int) {
	for _, c := range counts {
		p.total += c
	}
	p.Policy.RecordInvocations(t, counts)
}

// TestEpochInvocationConservation is the conservation law for the lock-free
// serving path: under concurrent invokers racing a concurrent stepper,
// every successful invocation must be counted exactly once, everywhere.
// Five ledgers have to agree to the invocation:
//
//	workers' own success count
//	  == Stats().Invocations (per-stripe accumulators)
//	  == sum of counts the policy saw via RecordInvocations (minute harvest)
//	  == sum over minutes of the accountant's invocations series (MetricAt)
//	  == sum of telemetry's pulse_function_invocations_total series, whose
//	     hit path takes no lock (first touches race each other and the
//	     stepper's keep-alive samples on the same slot table)
//
// The last equality additionally pins "no invocation lands in more than one
// minute": an invocation double-counted across a rollover would inflate the
// per-minute sum above the stripe total. Run under -race by the stress job.
func TestEpochInvocationConservation(t *testing.T) {
	cat, asg := testSetup(t)
	cost := cluster.DefaultCostModel()
	acct, err := attribution.New(attribution.Config{Catalog: cat, Assignment: asg, Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.New(core.Config{Catalog: cat, Assignment: asg})
	if err != nil {
		t.Fatal(err)
	}
	pol := &countingPolicy{Policy: base}
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Catalog:    cat,
		Assignment: asg,
		Policy:     pol,
		Clock:      NewManualClock(time.Unix(0, 0)),
		Cost:       cost,
		Observer:   telemetry.Multi(tel, acct),
		Mode:       ModeEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	perWorker := 20000
	if testing.Short() {
		perWorker = 2000
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := w % len(asg)
			for i := 0; i < perWorker; i++ {
				if _, err := r.Invoke(fn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// The stepper races minute rollovers against the invokers but stays
	// well inside the accountant's series window (1440 minutes), so every
	// minute's count is still retrievable afterwards.
	stop := make(chan struct{})
	var stepperWG sync.WaitGroup
	stepperWG.Add(1)
	go func() {
		defer stepperWG.Done()
		for i := 0; i < 1200; i++ {
			select {
			case <-stop:
				return
			default:
				if err := r.Step(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	stepperWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// One final rollover flushes the open minute's counts to the policy and
	// the accountant, then everything is quiescent.
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}

	want := workers * perWorker
	if got := r.Stats().Invocations; got != want {
		t.Errorf("Stats().Invocations = %d, workers succeeded %d times", got, want)
	}
	if pol.total != want {
		t.Errorf("policy saw %d invocations via RecordInvocations, want %d", pol.total, want)
	}
	var series float64
	for m := 0; m <= r.Minute(); m++ {
		v, ok := acct.MetricAt(attribution.MetricInvocations, m)
		if !ok {
			t.Fatalf("accountant has no invocations sample for minute %d", m)
		}
		series += v
	}
	if int(series) != want {
		t.Errorf("sum of per-minute attribution series = %v, want %d (an invocation left or entered a second minute)", series, want)
	}
	var exposition strings.Builder
	if err := tel.Registry().WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	var counted float64
	for _, line := range strings.Split(exposition.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "pulse_function_invocations_total{"); ok {
			v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			counted += v
		}
	}
	if int(counted) != want {
		t.Errorf("telemetry invocation counters sum to %v, want %d", counted, want)
	}
	if r.Minute() < 2 {
		t.Errorf("stepper only reached minute %d: the rollover race was not exercised", r.Minute())
	}
}
