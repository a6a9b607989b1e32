package fft

import (
	"math"
	"testing"
)

// sineSeries builds mean + amp·cos(2π·t/period + phase) over n samples.
func sineSeries(n int, mean, amp, period, phase float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = mean + amp*math.Cos(2*math.Pi*float64(i)/period+phase)
	}
	return x
}

func TestSpectrumRecoversSinusoid(t *testing.T) {
	const n = 120
	x := sineSeries(n, 10, 3, 12, 0.7) // harmonic index n/12 = 10
	mean, hs := Spectrum(x)
	if math.Abs(mean-10) > 1e-9 {
		t.Errorf("mean = %v, want 10", mean)
	}
	if len(hs) == 0 {
		t.Fatal("no harmonics")
	}
	top := hs[0]
	if top.Index != 10 {
		t.Errorf("dominant index = %d, want 10", top.Index)
	}
	if math.Abs(top.Amplitude-3) > 1e-9 {
		t.Errorf("dominant amplitude = %v, want 3", top.Amplitude)
	}
	if math.Abs(top.Period-12) > 1e-9 {
		t.Errorf("dominant period = %v, want 12", top.Period)
	}
	if math.Abs(top.Phase-0.7) > 1e-9 {
		t.Errorf("dominant phase = %v, want 0.7", top.Phase)
	}
}

func TestSpectrumEmpty(t *testing.T) {
	mean, hs := Spectrum(nil)
	if mean != 0 || hs != nil {
		t.Errorf("Spectrum(nil) = %v, %v", mean, hs)
	}
}

func TestSpectrumSortedByAmplitude(t *testing.T) {
	const n = 96
	x := make([]float64, n)
	for i := range x {
		ti := float64(i)
		x[i] = 5*math.Cos(2*math.Pi*ti/24) + 2*math.Cos(2*math.Pi*ti/8) + 1*math.Cos(2*math.Pi*ti/4)
	}
	_, hs := Spectrum(x)
	for i := 1; i < len(hs); i++ {
		if hs[i].Amplitude > hs[i-1].Amplitude+1e-12 {
			t.Fatalf("harmonics not sorted at %d: %v > %v", i, hs[i].Amplitude, hs[i-1].Amplitude)
		}
	}
	if hs[0].Index != n/24 {
		t.Errorf("strongest harmonic index = %d, want %d", hs[0].Index, n/24)
	}
}

func TestExtrapolateContinuesPeriodicSeries(t *testing.T) {
	const n, horizon = 240, 24
	x := sineSeries(n, 4, 2, 24, 1.1)
	mean, hs := Spectrum(x)
	fc, err := Extrapolate(mean, hs, n, horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	truth := sineSeries(n+horizon, 4, 2, 24, 1.1)[n:]
	for i := range fc {
		if math.Abs(fc[i]-truth[i]) > 1e-6 {
			t.Fatalf("forecast[%d] = %v, want %v", i, fc[i], truth[i])
		}
	}
}

func TestExtrapolateErrors(t *testing.T) {
	if _, err := Extrapolate(0, nil, 0, 5, 1); err == nil {
		t.Error("seriesLen 0 should fail")
	}
	if _, err := Extrapolate(0, nil, 10, -1, 1); err == nil {
		t.Error("negative horizon should fail")
	}
	fc, err := Extrapolate(2, nil, 10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if v != 2 {
			t.Errorf("no-harmonic forecast = %v, want mean 2", v)
		}
	}
}

func BenchmarkSpectrum1440(b *testing.B) {
	// One simulated day at minute resolution.
	x := sineSeries(1440, 10, 4, 240, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Spectrum(x)
	}
}
