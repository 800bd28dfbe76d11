package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative integer samples (ns).
// Values below 128 are counted exactly; above, every power-of-two octave is
// split into 128 equal buckets, so a bucket is never wider than 0.8% of its
// value. Quantiles interpolate linearly inside a bucket, which keeps them
// continuous rather than snapped to bucket edges. Memory is constant, so
// recording millions of latencies does not grow the heap the benchmark
// measures.
type hist struct {
	counts [128 + 57*128]uint64
	n      uint64
}

func histIndex(v int64) int {
	if v < 128 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	e := bits.Len64(u) - 8
	return 128 + e*128 + int(u>>uint(e)) - 128
}

func histBounds(i int) (lo, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	e := (i - 128) / 128
	m := 128 + (i-128)%128
	return float64(uint64(m) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

// quantile returns the q-quantile (0..1) of the recorded samples, 0 when
// there are none.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(len(h.counts) - 1)
	return lo + w
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(math.Floor(pos))
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
