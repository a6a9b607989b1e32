package fft

import (
	"math"
	"testing"
)

// FuzzRoundTrip: ForwardReal(x) matches the naive O(n²) DFT for arbitrary
// real series of arbitrary (including non-power-of-two) lengths, and the
// harmonic analysis on top of it stays finite.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 128, 7, 9, 200, 13})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 512 {
			return
		}
		x := make([]float64, len(raw))
		for i, b := range raw {
			x[i] = float64(b) - 128
		}
		cx := make([]complex128, len(x))
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		got, want := ForwardReal(x), naiveDFT(cx)
		if len(got) != len(x) {
			t.Fatalf("length changed: %d vs %d", len(got), len(x))
		}
		if d := maxDiff(got, want); d > 1e-6*float64(len(x)) {
			t.Fatalf("max diff vs naive DFT = %g (n=%d)", d, len(x))
		}
		// Spectrum/Extrapolate must not panic or return non-finite values.
		mean, hs := Spectrum(x)
		if math.IsNaN(mean) {
			t.Fatal("NaN mean")
		}
		fc, err := Extrapolate(mean, hs, len(x), 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range fc {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite forecast %v", v)
			}
		}
	})
}
