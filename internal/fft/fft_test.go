package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation used to validate the fast
// transforms.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// forward is ForwardInPlace on a copy of x.
func forward(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	ForwardInPlace(out)
	return out
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randomComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{-4, false}, {0, false}, {1, true}, {2, true}, {3, false}, {1024, true}, {1023, false}} {
		if got := IsPowerOfTwo(c.n); got != c.want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {1000, 1024}} {
		if got := NextPowerOfTwo(c.n); got != c.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NextPowerOfTwo(0) should panic")
		}
	}()
	NextPowerOfTwo(0)
}

func TestForwardMatchesNaive(t *testing.T) {
	// Cover radix-2 sizes, Bluestein sizes, primes, and tiny inputs.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 17, 31, 32, 60, 64, 97, 100} {
		x := randomComplex(n, int64(n))
		want := naiveDFT(x)
		got := forward(x)
		if d := maxDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: max diff vs naive DFT = %g", n, d)
		}
	}
}

// TestInverseRoundTrip checks radix2's inverse direction, the one
// bluestein runs to bring its convolution back: with the caller's 1/N
// normalization it undoes the forward transform.
func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randomComplex(n, int64(100+n))
		back := append([]complex128(nil), x...)
		radix2(back, false)
		radix2(back, true)
		for i := range back {
			back[i] /= complex(float64(n), 0)
		}
		if d := maxDiff(back, x); d > 1e-9*float64(n+1) {
			t.Errorf("n=%d: inverse(forward) max diff = %g", n, d)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if got := forward(nil); len(got) != 0 {
		t.Errorf("forward(nil) len = %d", len(got))
	}
	x := []complex128{complex(3, -2)}
	got := forward(x)
	if got[0] != x[0] {
		t.Errorf("singleton forward = %v, want %v", got[0], x[0])
	}
}

func TestForwardRealDCComponent(t *testing.T) {
	x := []float64{5, 5, 5, 5}
	spec := ForwardReal(x)
	if math.Abs(real(spec[0])-20) > 1e-12 {
		t.Errorf("DC bin = %v, want 20", spec[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(spec[k]) > 1e-10 {
			t.Errorf("constant series has nonzero bin %d: %v", k, spec[k])
		}
	}
}

// Property: linearity — FFT(a·x + y) == a·FFT(x) + FFT(y).
func TestForwardLinearity(t *testing.T) {
	f := func(seed int64) bool {
		n := 24 // Bluestein path
		x := randomComplex(n, seed)
		y := randomComplex(n, seed+1)
		a := complex(1.5, -0.5)
		lhsIn := make([]complex128, n)
		for i := range lhsIn {
			lhsIn[i] = a*x[i] + y[i]
		}
		lhs := forward(lhsIn)
		fx := forward(x)
		fy := forward(y)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*fx[i]+fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval — Σ|x|² == (1/N)·Σ|X|².
func TestParseval(t *testing.T) {
	f := func(seed int64) bool {
		n := 50
		x := randomComplex(n, seed)
		spec := forward(x)
		var timeE, freqE float64
		for i := range x {
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			freqE += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-6*(timeE+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkForward1024(b *testing.B) {
	x := randomComplex(1024, 1)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		ForwardInPlace(buf)
	}
}

func BenchmarkForwardBluestein1000(b *testing.B) {
	x := randomComplex(1000, 1)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		ForwardInPlace(buf)
	}
}
