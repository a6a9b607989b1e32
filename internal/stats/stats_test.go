package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSumMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		sum  float64
		mean float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 3, 3},
		{"mixed", []float64{1, 2, 3, 4}, 10, 2.5},
		{"negative", []float64{-1, 1}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Sum(c.in); got != c.sum {
				t.Errorf("Sum = %v, want %v", got, c.sum)
			}
			if got := Mean(c.in); got != c.mean {
				t.Errorf("Mean = %v, want %v", got, c.mean)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty percentile err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should fail")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should fail")
	}
	// Input must not be reordered.
	orig := []float64{9, 1, 5}
	if _, err := Percentile(orig, 50); err != nil {
		t.Fatal(err)
	}
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Errorf("Percentile mutated its input: %v", orig)
	}
}

func TestClamp01(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{-0.5, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.5, 1}, {math.NaN(), 0},
	} {
		if got := Clamp01(c.in); got != c.want {
			t.Errorf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: Percentile is monotone in p.
func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v, err := Percentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("Percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}
