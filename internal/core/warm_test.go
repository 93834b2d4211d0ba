package core

import (
	"math/rand"
	"testing"

	"followscent/internal/analysis"
)

// TestHistMedianIsMedianInt: a per-AS histogram's median is
// analysis.MedianInt's lower median of the samples it holds, at odd and
// even sample counts, after retractions, and an AS whose samples are
// all retracted leaves the table.
func TestHistMedianIsMedianInt(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 3, 4, 7, 10, 64, 65, 200} {
		for trial := 0; trial < 25; trial++ {
			xs := make([]int, n)
			tab := asHists{}
			for i := range xs {
				xs[i] = rng.Intn(65)
				tab.add(sample{7, xs[i]}, +1)
			}
			if got, want := tab.medians()[7], analysis.MedianInt(xs); got != want {
				t.Fatalf("n=%d %v: histogram median %d, MedianInt %d", n, xs, got, want)
			}
			// Retract a random prefix of a shuffle; the rest must still agree.
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			k := rng.Intn(n + 1)
			for _, x := range xs[:k] {
				tab.add(sample{7, x}, -1)
			}
			rest := xs[k:]
			if len(rest) == 0 {
				if len(tab) != 0 {
					t.Fatalf("n=%d: every sample retracted, table still holds %v", n, tab)
				}
				continue
			}
			if got, want := tab.medians()[7], analysis.MedianInt(rest); got != want {
				t.Fatalf("n=%d after retracting %d: histogram median %d, MedianInt %d of %v", n, k, got, want, rest)
			}
		}
	}
}
