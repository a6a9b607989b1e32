package telemetry

import (
	"slices"
	"strconv"
	"strings"
)

// Self-observability: the system watching its own hot paths. Step, scan,
// and flush samples describe what the *engine* cost — minute-barrier
// latency, per-shard scan duration, observer-flush duration — rather than
// what the policy decided. Like lifecycle events they are an optional
// observer extension: producers emit them behind their minute barriers
// (never per invocation), type-asserting at the emission site, so existing
// observers keep compiling and the invocation fast path is untouched.
//
// Wall-clock durations differ run to run and mode to mode, so the
// differential Recorder deliberately does NOT implement SelfObserver —
// its retained streams stay deterministic and DeepEqual-comparable.

// StepSample reports one runtime minute-barrier advance. Seconds is the
// wall time the barrier was held; SeqlockRetries and StripeContention are
// the *deltas* accumulated on the invocation path since the previous step
// (zero in serial mode, where neither mechanism exists).
type StepSample struct {
	Minute           int
	Seconds          float64
	SeqlockRetries   uint64
	StripeContention uint64
}

// ScanSample reports one shard's slice of a per-minute scan. Shard is the
// controller's record shard, 0 to S−1 (0 alone on a one-shard controller),
// or -1 for a scan the coordinator runs itself: the controller's gather and
// the engine's keep-alive accounting. Functions is the number of slots the
// scan covered: a record shard's range, the coordinator's visited slots.
type ScanSample struct {
	Minute    int
	Shard     int
	Functions int
	Seconds   float64
}

// FlushSample reports the duration of one observer flush — the post-record
// drain that replays the record shards' buffered samples in shard order,
// which is the serial order.
type FlushSample struct {
	Minute  int
	Seconds float64
}

// SelfObserver is the optional extension an Observer can implement to
// receive engine self-observability samples.
type SelfObserver interface {
	ObserveStep(StepSample)
	ObserveScan(ScanSample)
	ObserveFlush(FlushSample)
}

// WantsSelf reports whether obs (or, for a fan-out, any of its children)
// actually consumes self samples. Producers use it to skip the clock reads
// that feed duration samples when nobody is listening.
func WantsSelf(obs Observer) bool {
	switch o := obs.(type) {
	case nil:
		return false
	case Nop:
		return false
	case multi:
		for _, c := range o {
			if WantsSelf(c) {
				return true
			}
		}
		return false
	}
	_, ok := obs.(SelfObserver)
	return ok
}

// ObserveStep forwards a step sample to obs if (and only if) it implements
// SelfObserver — the nil-safe emission helper producers use.
func ObserveStep(obs Observer, s StepSample) {
	if so, ok := obs.(SelfObserver); ok {
		so.ObserveStep(s)
	}
}

// ObserveScan forwards a scan sample like ObserveStep.
func ObserveScan(obs Observer, s ScanSample) {
	if so, ok := obs.(SelfObserver); ok {
		so.ObserveScan(s)
	}
}

// ObserveFlush forwards a flush sample like ObserveStep.
func ObserveFlush(obs Observer, s FlushSample) {
	if so, ok := obs.(SelfObserver); ok {
		so.ObserveFlush(s)
	}
}

// ObserveStep implements SelfObserver.
func (Nop) ObserveStep(StepSample) {}

// ObserveScan implements SelfObserver.
func (Nop) ObserveScan(ScanSample) {}

// ObserveFlush implements SelfObserver.
func (Nop) ObserveFlush(FlushSample) {}

// ObserveStep implements SelfObserver: the fan-out forwards to the
// children that understand self samples and skips the rest.
func (m multi) ObserveStep(s StepSample) {
	for _, o := range m {
		if so, ok := o.(SelfObserver); ok {
			so.ObserveStep(s)
		}
	}
}

// ObserveScan implements SelfObserver.
func (m multi) ObserveScan(s ScanSample) {
	for _, o := range m {
		if so, ok := o.(SelfObserver); ok {
			so.ObserveScan(s)
		}
	}
}

// ObserveFlush implements SelfObserver.
func (m multi) ObserveFlush(s FlushSample) {
	for _, o := range m {
		if so, ok := o.(SelfObserver); ok {
			so.ObserveFlush(s)
		}
	}
}

// ObserveStep implements SelfObserver: the barrier-hold duration feeds the
// step-duration histogram.
func (t *Telemetry) ObserveStep(s StepSample) {
	t.mu.Lock()
	t.stepDur.observe(s.Seconds)
	t.mu.Unlock()
}

// maxShards bounds the scan histograms, which are indexed by shard: a
// sample naming a shard outside [-1, maxShards) is dropped.
const maxShards = 1 << 16

// ObserveScan implements SelfObserver: scan duration feeds the per-shard
// scan histogram (shard "-1" is the coordinator's own scan).
func (t *Telemetry) ObserveScan(s ScanSample) {
	i := s.Shard + 1
	if uint(i) > maxShards {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i >= len(t.scan) {
		t.scan = append(t.scan, make([]durHist, i+1-len(t.scan))...)
	}
	t.scan[i].observe(s.Seconds)
}

// ObserveFlush implements SelfObserver.
func (t *Telemetry) ObserveFlush(s FlushSample) {
	t.mu.Lock()
	t.flushDur.observe(s.Seconds)
	t.mu.Unlock()
}

// engineBounds spans engine hot-path durations: sub-microsecond idle scans
// up to second-long million-slot sweeps.
var (
	engineBounds = [...]float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1}
	engineLes    = formatBounds(engineBounds[:])
)

// durHist is a duration histogram over engineBounds.
type durHist struct {
	n     [len(engineBounds)]uint64 // per-bucket (non-cumulative) counts
	count uint64
	sum   float64
}

func (h *durHist) observe(v float64) {
	for i, ub := range engineBounds {
		if v <= ub {
			h.n[i]++
			break
		}
	}
	h.count++
	h.sum += v
}

// writeDuration renders the unlabeled histogram h.
func (t *Telemetry) writeDuration(h *durHist) func(*expo, string) {
	return func(e *expo, name string) {
		t.mu.Lock()
		c := *h
		t.mu.Unlock()
		e.histogram(name, nil, engineLes, c.n[:], c.count, c.sum)
	}
}

// writeScan renders pulse_shard_scan_duration_seconds{shard}, shards in the
// string order of their labels.
func (t *Telemetry) writeScan(e *expo, name string) {
	type shard struct {
		label string
		h     durHist
	}
	var shards []shard
	t.mu.Lock()
	for i, h := range t.scan {
		if h.count > 0 {
			shards = append(shards, shard{strconv.Itoa(i - 1), h})
		}
	}
	t.mu.Unlock()
	slices.SortFunc(shards, func(a, b shard) int { return strings.Compare(a.label, b.label) })
	for _, sh := range shards {
		e.histogram(name, appendLabel(nil, "shard", sh.label), engineLes, sh.h.n[:], sh.h.count, sh.h.sum)
	}
}

var (
	_ SelfObserver = Nop{}
	_ SelfObserver = (*Telemetry)(nil)
	_ SelfObserver = multi(nil)
)
