package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed log-linear histogram of non-negative int64 samples
// (nanoseconds here): every power of two is cut into histSub linear
// buckets, so a bucket is at most 1/histSub (3.1 %) of its value wide.
// It has one writer (the receiving node's loop goroutine); readers wait
// for the run to end. Quantiles interpolate inside the bucket, so two
// runs that land in the same bucket still report different values.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	max    int64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)*histSub + int(uint64(v)>>uint(shift)) - histSub
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	shift := uint(i/histSub - 1)
	base := int64(histSub+i%histSub) << shift
	return float64(base), float64(base + int64(1)<<shift)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-th quantile (0..1) of the recorded samples, or
// NaN when there are none.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// above returns how many samples lie beyond the q-th quantile.
func (h *hist) above(q float64) int64 {
	return h.n - int64(math.Ceil(q*float64(h.n)))
}

// quantileOf returns the q-th quantile of a small sample by the
// exclusive method, as Python's statistics.quantiles does: for q in
// {0.25, 0.5, 0.75} it gives what statistics.quantiles(xs, n=4) gives.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	// Exclusive method: position q*(n+1), clamped to the sample.
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	i := int(pos)
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }
