package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the fixed set of percentiles a timing may be reported
// at. The reported tail is the highest rung with at least ten samples
// beyond it, so a p99 is never the max of a short run in disguise.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported.
const minBeyond = 10

// supportedTail returns the highest ladder percentile that n samples
// support — at least minBeyond samples strictly beyond it — and false
// when not even the median qualifies.
func supportedTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank percentile p of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// relSpread is the repeatability measure of -sets: the distance between
// the extremes of the values as a share of their mean.
func relSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi, sum := vals[0], vals[0], 0.0
	for _, v := range vals {
		lo, hi, sum = math.Min(lo, v), math.Max(hi, v), sum+v
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(mean)
}
