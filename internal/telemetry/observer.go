package telemetry

import "sync"

// InvocationSample reports Count identical invocations of one function-minute.
// Every producer emits them through cluster.ObserveServed at its minute
// barrier: a cold Count-1 sample first when the minute began cold, then one
// warm sample for the rest.
type InvocationSample struct {
	Minute      int
	Function    int
	Variant     string
	Cold        bool
	Count       int
	ServiceSec  float64 // per-invocation service time (cold start included when Cold)
	AccuracyPct float64
}

// KeepAliveSample reports which variant the policy keeps alive for one
// function in one minute. The stream is sparse: a sample is emitted for
// function f in minute t if and only if f holds a variant in t (Variant ≥ 0)
// or held one in t−1 (the release edge: Variant is -1, VariantName empty).
// A function with no sample in a minute is resting at NoVariant — the same
// "unlisted slot ⇒ NoVariant" invariant cluster.ActiveSetPolicy states for
// decision vectors. The rule is a pure function of the decision vectors of
// minutes t−1 and t, so every producer (the cluster engine, the live runtime
// in every serving mode, walking densely or over an active set) emits the
// identical stream, in ascending function order within a minute.
type KeepAliveSample struct {
	Minute      int
	Function    int
	Variant     int
	VariantName string
	MemMB       float64
}

// MinuteSample is the platform's per-minute rollup: total keep-alive
// memory and the keep-alive cost charged for the minute.
type MinuteSample struct {
	Minute      int
	KeepAliveMB float64
	CostUSD     float64
}

// ScheduleSample is one function-centric optimizer decision: after an
// invocation at Minute, the plan commits Plan[i] (a variant index) for
// offset minute i+1, chosen from invocation probability Probs[i].
// Observers must not retain or mutate the slices beyond the call.
type ScheduleSample struct {
	Minute   int
	Function int
	Plan     []int
	Probs    []float64
}

// PeakSample reports an Algorithm 1 peak-episode transition. Enter samples
// carry the keep-alive memory that tripped the detector, the prior it was
// compared against, the flatten target, and how many downgrades the episode
// opened with.
type PeakSample struct {
	Minute      int
	Enter       bool
	KeepAliveMB float64
	PriorMB     float64
	TargetMB    float64
	Downgrades  int
}

// DowngradeSample is one Algorithm 2 downgrade with the full utility
// breakdown that selected the victim. ToVariant is -1 for an eviction.
type DowngradeSample struct {
	Minute      int
	Function    int
	FromVariant int
	ToVariant   int
	Ai          float64
	Pr          float64
	Ip          float64
}

// Uv returns the victim's utility value Ai + Pr + Ip (Equation 2).
func (d DowngradeSample) Uv() float64 { return d.Ai + d.Pr + d.Ip }

// Observer receives instrumentation events from the core optimizers, the
// cluster engine, and the live runtime. Every producer delivers from its
// minute barrier, never from the invocation path: the live runtime emits
// a minute's invocation samples in the Step that closes it, in ascending
// function order before the next minute's keep-alive and minute samples —
// the cluster engine's order — so one producer's stream is deterministic
// and identical across locking modes. Implementations must still be
// concurrency-safe: a chain shared by concurrent producers (simulation
// runs on a worker pool, say) is called from several goroutines, and the
// HTTP API reads it while the barrier writes.
//
// Per-minute cost contract: a minute delivers one ObserveMinute and one
// ObserveKeepAlive per holder or release edge (see KeepAliveSample) — work
// proportional to the active set, never to the registered population.
// Consumers derive "idle" from absence; ObserveMinute is the only callback
// guaranteed every minute, so minute-ledger observers roll their clock on
// it rather than on the first keep-alive sample.
//
// Producers treat observers as nil-safe configuration — a nil Observer
// field disables instrumentation entirely, and the Nop implementation
// exists for call sites that want an always-valid value. Attaching an
// Observer never changes which algorithmic path a producer runs.
type Observer interface {
	ObserveInvocation(InvocationSample)
	ObserveKeepAlive(KeepAliveSample)
	ObserveMinute(MinuteSample)
	ObserveSchedule(ScheduleSample)
	ObservePeak(PeakSample)
	ObserveDowngrade(DowngradeSample)
}

// Nop is an Observer that does nothing and allocates nothing — the
// uninstrumented baseline the benchmark suite compares against.
type Nop struct{}

// ObserveInvocation implements Observer.
func (Nop) ObserveInvocation(InvocationSample) {}

// ObserveKeepAlive implements Observer.
func (Nop) ObserveKeepAlive(KeepAliveSample) {}

// ObserveMinute implements Observer.
func (Nop) ObserveMinute(MinuteSample) {}

// ObserveSchedule implements Observer.
func (Nop) ObserveSchedule(ScheduleSample) {}

// ObservePeak implements Observer.
func (Nop) ObservePeak(PeakSample) {}

// ObserveDowngrade implements Observer.
func (Nop) ObserveDowngrade(DowngradeSample) {}

var _ Observer = Nop{}

// Recorder is an Observer that retains every sample in memory — a testing
// and tooling aid for asserting exactly what a controller or runtime
// reported.
type Recorder struct {
	mu          sync.Mutex
	Invocations []InvocationSample
	KeepAlives  []KeepAliveSample
	Minutes     []MinuteSample
	Schedules   []ScheduleSample
	Peaks       []PeakSample
	Downgrades  []DowngradeSample
	Registers   []RegisterSample
	Deregisters []DeregisterSample
}

// ObserveInvocation implements Observer.
func (r *Recorder) ObserveInvocation(s InvocationSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Invocations = append(r.Invocations, s)
}

// ObserveKeepAlive implements Observer.
func (r *Recorder) ObserveKeepAlive(s KeepAliveSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.KeepAlives = append(r.KeepAlives, s)
}

// ObserveMinute implements Observer.
func (r *Recorder) ObserveMinute(s MinuteSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Minutes = append(r.Minutes, s)
}

// ObserveSchedule implements Observer.
func (r *Recorder) ObserveSchedule(s ScheduleSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Plan = append([]int(nil), s.Plan...)
	s.Probs = append([]float64(nil), s.Probs...)
	r.Schedules = append(r.Schedules, s)
}

// ObservePeak implements Observer.
func (r *Recorder) ObservePeak(s PeakSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Peaks = append(r.Peaks, s)
}

// ObserveDowngrade implements Observer.
func (r *Recorder) ObserveDowngrade(s DowngradeSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Downgrades = append(r.Downgrades, s)
}

var _ Observer = (*Recorder)(nil)
