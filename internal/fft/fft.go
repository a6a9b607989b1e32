// Package fft implements the fast Fourier transform substrate used by the
// IceBreaker-style invocation forecaster. The Go standard library has no
// FFT, so this package provides one from scratch:
//
//   - an iterative radix-2 Cooley–Tukey transform for power-of-two lengths,
//   - Bluestein's chirp-z algorithm for arbitrary lengths,
//   - real-input harmonic analysis (dominant frequencies, band-limited
//     extrapolation) on top.
//
// The transform uses the unnormalized forward convention
// X[k] = Σ x[n]·exp(-2πi·kn/N).
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two ≥ n. It panics for
// non-positive n or when the result would overflow int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("fft: NextPowerOfTwo(%d): need positive n", n))
	}
	if IsPowerOfTwo(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic(fmt.Sprintf("fft: NextPowerOfTwo(%d): overflow", n))
	}
	return p
}

// ForwardInPlace computes the DFT of x in place. Non-power-of-two lengths
// fall back to Bluestein (which internally allocates).
func ForwardInPlace(x []complex128) {
	n := len(x)
	switch {
	case n <= 1:
		return
	case IsPowerOfTwo(n):
		radix2(x, false)
	default:
		bluestein(x)
	}
}

// ForwardReal transforms a real-valued series, returning the full complex
// spectrum of the same length.
func ForwardReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	ForwardInPlace(cx)
	return cx
}

// radix2 runs an iterative in-place Cooley–Tukey transform. inverse selects
// the conjugate twiddle direction (normalization is handled by the caller).
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wn := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wn
			}
		}
	}
}

// bluestein computes an arbitrary-length forward DFT as a convolution
// evaluated through power-of-two FFTs (the chirp-z transform).
func bluestein(x []complex128) {
	n := len(x)
	// Chirp factors w[k] = exp(-iπ·k²/n). Using k² mod 2n keeps the angle
	// argument small and the chirp numerically exact for large k.
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		w[k] = cmplx.Exp(complex(0, ang))
	}
	m := NextPowerOfTwo(2*n - 1)
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		bk := cmplx.Conj(w[k])
		b[k] = bk
		if k > 0 {
			b[m-k] = bk
		}
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * w[k]
	}
}
