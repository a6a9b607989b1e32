package stats

import "fmt"

// RollingWindow is a fixed-capacity ring buffer over float64 samples with
// O(1) push. The PULSE peak detector uses it for the "average keep-alive
// memory over the last local_window minutes" term of Algorithm 1, where one
// sample is pushed per simulated minute. Sum and Mean add the held samples
// oldest-first on every call — O(window), but exact: the result depends
// only on the samples held, never on what was pushed and evicted before, so
// a window rebuilt from its Values sums identically.
type RollingWindow struct {
	buf  []float64
	head int // index of the oldest sample
	n    int // number of valid samples
}

// NewRollingWindow returns a window holding at most capacity samples.
// It panics on non-positive capacity, which is a configuration error.
func NewRollingWindow(capacity int) *RollingWindow {
	if capacity <= 0 {
		panic(fmt.Sprintf("stats: NewRollingWindow(%d): capacity must be positive", capacity))
	}
	return &RollingWindow{buf: make([]float64, capacity)}
}

// Push appends a sample, evicting the oldest when the window is full.
func (w *RollingWindow) Push(x float64) {
	if w.n == len(w.buf) {
		w.buf[w.head] = x
		w.head = (w.head + 1) % len(w.buf)
	} else {
		w.buf[(w.head+w.n)%len(w.buf)] = x
		w.n++
	}
}

// Mean returns the mean of the held samples, or 0 when empty.
func (w *RollingWindow) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.Sum() / float64(w.n)
}

// Sum returns the sum of the held samples, added oldest-first.
func (w *RollingWindow) Sum() float64 {
	sum := 0.0
	for i := 0; i < w.n; i++ {
		sum += w.At(i)
	}
	return sum
}

// At returns the i-th oldest sample (0 = oldest). It panics on an
// out-of-range index.
func (w *RollingWindow) At(i int) float64 {
	if i < 0 || i >= w.n {
		panic(fmt.Sprintf("stats: RollingWindow.At(%d) with %d samples", i, w.n))
	}
	return w.buf[(w.head+i)%len(w.buf)]
}

// Values returns the held samples oldest-first in a fresh slice.
func (w *RollingWindow) Values() []float64 {
	out := make([]float64, w.n)
	for i := 0; i < w.n; i++ {
		out[i] = w.At(i)
	}
	return out
}
