package runtime

import (
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pulse-serverless/pulse/internal/models"
)

// parityPolicy pins the keep-alive decision to the minute itself: at minute
// t every function keeps alive variant t mod its family's variant count,
// and cold starts (which never happen here, but symmetry is cheap) pick the
// same one. That turns (minute, alive variant) into a matched pair written
// together inside Step's write window: an invocation that observes minute m
// MUST carry the variant m selects, so any torn read across the minute
// barrier — new minute with the old variant or vice versa — is immediately
// visible in the invocation it produced.
type parityPolicy struct {
	cat *models.Catalog
	asg models.Assignment
	buf []int
}

func (p *parityPolicy) Name() string { return "minute-parity" }

func (p *parityPolicy) KeepAlive(t int) []int {
	if p.buf == nil {
		p.buf = make([]int, len(p.asg))
	}
	for fn, fam := range p.asg {
		p.buf[fn] = t % p.cat.Families[fam].NumVariants()
	}
	return p.buf
}

func (p *parityPolicy) ColdVariant(t, fn int) int {
	return t % p.cat.Families[p.asg[fn]].NumVariants()
}

func (p *parityPolicy) RecordInvocations(t int, counts []int) {}

// TestSeqlockTornReadDetector is the torn-read canary for the epoch mode's
// seqlock protocol. Step writes the minute stamp and every stripe's alive
// variant as a matched pair inside one write window; the parity policy
// makes the pair self-checking (variant name is a function of the minute).
// Concurrent invokers then hammer the lock-free fast path while a stepper
// flips minutes as fast as it can: if the seqlock re-check ever let a body
// straddle a window, the invocation would pair a minute with the previous
// minute's variant and fail loudly here. Each goroutine also asserts its
// observed minutes never go backwards. Run at GOMAXPROCS>=4 so readers and
// the stepper genuinely interleave.
func TestSeqlockTornReadDetector(t *testing.T) {
	if prev := goruntime.GOMAXPROCS(0); prev < 4 {
		goruntime.GOMAXPROCS(4)
		defer goruntime.GOMAXPROCS(prev)
	}
	cat, asg := testSetup(t)
	pol := &parityPolicy{cat: cat, asg: asg}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: pol, Clock: NewManualClock(time.Unix(0, 0)), Mode: ModeEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	duration := 400 * time.Millisecond
	if testing.Short() {
		duration = 50 * time.Millisecond
	}
	deadline := time.Now().Add(duration)

	const readers = 4
	var wg sync.WaitGroup
	var total int64
	var totalMu sync.Mutex
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn := g % len(asg)
			fam := cat.Families[asg[fn]]
			n := fam.NumVariants()
			lastMinute := -1
			var iters int64
			for i := 0; ; i++ {
				// Check the clock every so often, not every iteration.
				if i&1023 == 0 && time.Now().After(deadline) {
					break
				}
				inv, err := r.Invoke(fn)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				iters++
				if want := fam.Variants[inv.Minute%n].Name; inv.Variant != want {
					t.Errorf("torn read: minute %d served variant %q, want %q (pair written by Step was split)",
						inv.Minute, inv.Variant, want)
					return
				}
				if inv.Minute < lastMinute {
					t.Errorf("reader %d: minute went backwards %d -> %d", g, lastMinute, inv.Minute)
					return
				}
				lastMinute = inv.Minute
			}
			totalMu.Lock()
			total += iters
			totalMu.Unlock()
		}(g)
	}
	// The stepper flips the minute as fast as the write window allows,
	// maximizing the number of invocations that race a rollover.
	stop := make(chan struct{})
	var stepperWG sync.WaitGroup
	stepperWG.Add(1)
	go func() {
		defer stepperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.Step(); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Error(err)
					}
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
	if total == 0 {
		t.Fatal("detector ran zero iterations")
	}
	if r.Minute() == 0 {
		t.Fatal("stepper never advanced a minute: nothing raced the rollover")
	}
	t.Logf("clean: %d invocations across %d minute rollovers", total, r.Minute())
}

// TestEpochInvokeZeroAllocs pins the epoch fast path at zero heap
// allocations per warm invocation: the retry loop, the stripe lookup, and
// the invocation body must all stay on the stack, or throughput quietly
// decays into the allocator. Run by the CI alloc job.
func TestEpochInvokeZeroAllocs(t *testing.T) {
	cat, asg := testSetup(t)
	pol := &parityPolicy{cat: cat, asg: asg}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: pol, Clock: NewManualClock(time.Unix(0, 0)), Mode: ModeEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Invoke(0); err != nil { // warm the path, trigger ensureStarted
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.Invoke(0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("epoch Invoke fast path allocates %v times per call, want 0", allocs)
	}
}

// gatePolicy is a parityPolicy whose KeepAlive, once armed, signals entered
// and blocks until release is closed: it holds one Step's write window open
// for as long as a test likes.
type gatePolicy struct {
	parityPolicy
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (p *gatePolicy) KeepAlive(t int) []int {
	if p.armed.CompareAndSwap(true, false) {
		close(p.entered)
		<-p.release
	}
	return p.parityPolicy.KeepAlive(t)
}

// TestEpochInvokeParksDuringWriteWindow: callers that meet an open write
// window sleep until it ends instead of spinning through the retry loop, so
// each retries a bounded number of times however long the window lasts, and
// every one is served in the minute the window opened.
func TestEpochInvokeParksDuringWriteWindow(t *testing.T) {
	cat, asg := testSetup(t)
	pol := &gatePolicy{
		parityPolicy: parityPolicy{cat: cat, asg: asg},
		entered:      make(chan struct{}),
		release:      make(chan struct{}),
	}
	r, err := New(Config{Catalog: cat, Assignment: asg, Policy: pol, Clock: NewManualClock(time.Unix(0, 0)), Mode: ModeEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Invoke(0); err != nil { // start outside the gated window
		t.Fatal(err)
	}

	pol.armed.Store(true)
	stepped := make(chan error, 1)
	go func() { stepped <- r.Step() }()
	<-pol.entered // Step's window is open and stays open until release
	before := r.SeqlockRetries()

	const callers = 8
	var wg sync.WaitGroup
	minutes := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inv, err := r.Invoke(i % len(asg))
			minutes[i], errs[i] = inv.Minute, err
		}(i)
	}
	// Long enough for every caller to meet the window; a caller spinning
	// through it would retry thousands of times meanwhile.
	time.Sleep(50 * time.Millisecond)
	close(pol.release)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i := range minutes {
		if errs[i] != nil || minutes[i] != 1 {
			t.Errorf("caller %d: served in minute %d (err %v), want minute 1", i, minutes[i], errs[i])
		}
	}
	if got := r.SeqlockRetries() - before; got > 2*callers {
		t.Errorf("%d callers retried %d times across one write window, want at most %d", callers, got, 2*callers)
	}
}
