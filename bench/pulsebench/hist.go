package main

import "math/bits"

// hist is a log-linear (HDR-style) histogram of non-negative int64 samples,
// nanoseconds everywhere in this bench. Every power-of-two range is split
// into histSub equal sub-buckets, so a reported quantile is within
// 1/(2*histSub) ≈ 0.1 % of the exact order statistic at any magnitude —
// unlike power-of-two buckets, which put a 140 µs body and a 13 ms stall
// mode one bucket apart from everything in between and report p50 = p99
// whenever both fall in one bucket.
//
// The zero value is ready to use. A hist is not safe for concurrent use:
// every load-generator connection owns one and they are merged afterwards.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    int64
	max    int64
}

const (
	histSubBits = 9
	histSub     = 1 << histSubBits // sub-buckets per power of two
	// Values below histSub get one exact bucket each; every further bit of
	// magnitude (up to the 63 an int64 holds) gets histSub more.
	histBuckets = (64 - histSubBits) * histSub
)

// histIndex maps a sample to its bucket; histValue is the inverse, returning
// the bucket's midpoint.
func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - histSubBits - 1
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

func histValue(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	exp := idx/histSub - 1
	low := int64(histSub+idx%histSub) << uint(exp)
	return low + (int64(1)<<uint(exp))/2
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the value at rank ceil(q*n) (the same convention as
// sorted[ceil(q*n)-1] on the raw samples), or 0 for an empty histogram.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if v := histValue(i); v < h.max {
				return v
			}
			return h.max
		}
	}
	return h.max
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
