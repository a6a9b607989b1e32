package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRollingWindowBasics(t *testing.T) {
	w := NewRollingWindow(3)
	if len(w.Values()) != 0 || w.Mean() != 0 || w.Sum() != 0 {
		t.Fatalf("fresh window: values=%v mean=%v", w.Values(), w.Mean())
	}
	w.Push(1)
	w.Push(2)
	if w.Mean() != 1.5 {
		t.Errorf("mean=%v", w.Mean())
	}
	w.Push(3)
	w.Push(4) // evicts 1
	if len(w.Values()) != 3 {
		t.Errorf("len(Values) = %d, want 3", len(w.Values()))
	}
	if w.Mean() != 3 { // (2+3+4)/3
		t.Errorf("Mean = %v, want 3", w.Mean())
	}
	if w.Sum() != 9 {
		t.Errorf("Sum = %v, want 9", w.Sum())
	}
	vals := w.Values()
	want := []float64{2, 3, 4}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("Values = %v, want %v", vals, want)
			break
		}
	}
	if w.At(0) != 2 || w.At(2) != 4 {
		t.Errorf("At(0)=%v At(2)=%v", w.At(0), w.At(2))
	}
}

func TestRollingWindowPanics(t *testing.T) {
	for _, cap := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRollingWindow(%d) should panic", cap)
				}
			}()
			NewRollingWindow(cap)
		}()
	}
	w := NewRollingWindow(2)
	w.Push(1)
	defer func() {
		if recover() == nil {
			t.Error("At out of range should panic")
		}
	}()
	w.At(1)
}

// Property: the window mean always equals the mean of its Values() exactly,
// and the values are the last min(cap, pushed) samples in order.
func TestRollingWindowMatchesNaive(t *testing.T) {
	f := func(raw []float64, capSeed uint8) bool {
		capacity := int(capSeed)%8 + 1
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				raw[i] = 1
			}
			// Keep sums finite: Inf - Inf is NaN, which equals nothing.
			raw[i] = math.Mod(raw[i], 1000)
		}
		w := NewRollingWindow(capacity)
		for _, x := range raw {
			w.Push(x)
		}
		start := len(raw) - capacity
		if start < 0 {
			start = 0
		}
		expect := raw[start:]
		if len(w.Values()) != len(expect) {
			return false
		}
		for i, want := range expect {
			if w.At(i) != want {
				return false
			}
		}
		if len(expect) > 0 {
			if w.Mean() != Mean(expect) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRollingWindowNoDrift pins the sum to the samples held: once every
// sample that was pushed has been evicted by zeros, the sum is exactly 0,
// where a running sum would keep the rounding of every add and subtract.
func TestRollingWindowNoDrift(t *testing.T) {
	w := NewRollingWindow(4)
	for _, x := range []float64{0.1, 0.2, 0.3, 1e17, 0.7} {
		w.Push(x)
	}
	for i := 0; i < 4; i++ {
		w.Push(0)
	}
	if w.Sum() != 0 || w.Mean() != 0 {
		t.Errorf("window of zeros: sum %v, mean %v; want 0", w.Sum(), w.Mean())
	}
}

func BenchmarkRollingWindowPush(b *testing.B) {
	w := NewRollingWindow(60)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Push(xs[i%len(xs)])
	}
}
