package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// A bimodal latency sample — a 140 µs body and a 13 ms barrier-stall mode —
// is the case power-of-two buckets collapse: 140 µs and everything up to
// 262 µs share a bucket, so p50 = p90, and the gap between body and stall is
// invisible. The log-linear histogram must track an exact sort within 1 %.
func TestHistBimodalQuantilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	var exact []int64
	add := func(v float64) {
		ns := int64(v)
		h.record(ns)
		exact = append(exact, ns)
	}
	for i := 0; i < 97_000; i++ {
		add(140e3 * math.Exp(rng.NormFloat64()*0.15))
	}
	for i := 0; i < 3_000; i++ {
		add(13e6 * math.Exp(rng.NormFloat64()*0.05))
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.96, 0.98, 0.99, 0.999, 1} {
		want := quantileSorted(exact, q)
		got := h.quantile(q)
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.01 {
			t.Errorf("q=%v: histogram %d, exact %d (off by %.2f%%)", q, got, want, rel*100)
		}
	}
	if p50, p99 := h.quantile(0.50), h.quantile(0.99); p99 < 50*p50 {
		t.Errorf("p50 %d and p99 %d should sit in different modes", p50, p99)
	}
	if got, want := h.mean(), mean(exact); math.Abs(got-want) > 1e-6*want {
		t.Errorf("mean %v, want %v", got, want)
	}
}

func mean(v []int64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// Every bucket's midpoint maps back to that bucket, buckets are contiguous,
// and the largest int64 has a bucket.
func TestHistIndexRoundTrip(t *testing.T) {
	for idx := 0; idx < histBuckets; idx++ {
		if got := histIndex(histValue(idx)); got != idx {
			t.Fatalf("bucket %d: midpoint %d maps to bucket %d", idx, histValue(idx), got)
		}
	}
	for _, v := range []int64{0, 1, histSub - 1, histSub, histSub + 1, 2*histSub - 1, 2 * histSub, 1 << 40, math.MaxInt64} {
		if idx := histIndex(v); idx < 0 || idx >= histBuckets {
			t.Errorf("value %d maps outside the table: %d", v, idx)
		}
	}
	if a, b := histIndex(2*histSub-1), histIndex(2*histSub); b != a+1 {
		t.Errorf("buckets not contiguous across a power of two: %d then %d", a, b)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, both hist
	for i := int64(1); i <= 1000; i++ {
		both.record(i * 1000)
		if i%2 == 0 {
			a.record(i * 1000)
		} else {
			b.record(i * 1000)
		}
	}
	a.merge(&b)
	if a != both {
		t.Error("merging two halves differs from recording everything into one")
	}
}
