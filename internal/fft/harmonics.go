package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// Harmonic describes one frequency component of a real series of length N.
// Index k corresponds to frequency k/N cycles per sample, i.e. a period of
// N/k samples.
type Harmonic struct {
	Index     int     // spectrum bin (1 ≤ Index ≤ N/2 for real series)
	Amplitude float64 // 2·|X[k]|/N — the peak amplitude of the sinusoid
	Phase     float64 // phase in radians
	Period    float64 // N / Index, in samples
}

// Spectrum analyzes a real series and returns its positive-frequency
// harmonics sorted by descending amplitude, together with the series mean
// (the DC component). The IceBreaker forecaster uses the top harmonics to
// extrapolate invocation counts.
func Spectrum(x []float64) (mean float64, harmonics []Harmonic) {
	n := len(x)
	if n == 0 {
		return 0, nil
	}
	spec := ForwardReal(x)
	mean = real(spec[0]) / float64(n)
	half := n / 2
	harmonics = make([]Harmonic, 0, half)
	for k := 1; k <= half; k++ {
		amp := 2 * cmplx.Abs(spec[k]) / float64(n)
		if k == half && n%2 == 0 {
			// The Nyquist bin is not doubled for even-length series.
			amp = cmplx.Abs(spec[k]) / float64(n)
		}
		harmonics = append(harmonics, Harmonic{
			Index:     k,
			Amplitude: amp,
			Phase:     cmplx.Phase(spec[k]),
			Period:    float64(n) / float64(k),
		})
	}
	sort.SliceStable(harmonics, func(i, j int) bool {
		return harmonics[i].Amplitude > harmonics[j].Amplitude
	})
	return mean, harmonics
}

// Extrapolate evaluates the model "mean + Σ harmonics" at sample positions
// n, n+1, ..., n+horizon-1 where n = len of the analyzed series. This is
// the band-limited periodic extension IceBreaker uses to forecast future
// invocation counts: the dominant harmonics of the observed window are
// assumed to continue.
//
// seriesLen must match the length of the series passed to Spectrum;
// topK limits how many of the strongest harmonics are used (topK ≤ 0 uses
// all). The forecast is not clamped; callers clamp to their domain.
func Extrapolate(mean float64, harmonics []Harmonic, seriesLen, horizon, topK int) ([]float64, error) {
	if seriesLen <= 0 {
		return nil, fmt.Errorf("fft: Extrapolate: seriesLen must be positive, got %d", seriesLen)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("fft: Extrapolate: negative horizon %d", horizon)
	}
	use := harmonics
	if topK > 0 && topK < len(harmonics) {
		use = harmonics[:topK]
	}
	out := make([]float64, horizon)
	for i := 0; i < horizon; i++ {
		t := float64(seriesLen + i)
		v := mean
		for _, h := range use {
			omega := 2 * math.Pi * float64(h.Index) / float64(seriesLen)
			v += h.Amplitude * math.Cos(omega*t+h.Phase)
		}
		out[i] = v
	}
	return out, nil
}
