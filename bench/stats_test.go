package main

import (
	"math"
	"testing"
)

// The percentile rule: report the highest ladder percentile that has at
// least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{10, 0, false},
		{19, 0, false}, // the median of 19 has 9 beyond it
		{20, 0.5, true},
		{99, 0.5, true}, // p90 of 99 is rank 90: 9 beyond
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
		{10000000, 0.9999, true}, // the ladder ends there
	} {
		got, ok := supportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v", got)
	}
	// Exactly ten samples lie beyond the reported p90 of 100.
	if beyond := len(xs) - rank(len(xs), 0.9); beyond != minBeyond {
		t.Errorf("%d samples beyond p90 of 100, want %d", beyond, minBeyond)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v", got)
	}
}

func TestRelSpread(t *testing.T) {
	if got := relSpread([]float64{90, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread(90,110) = %v, want 0.2", got)
	}
	if got := relSpread([]float64{5}); got != 0 {
		t.Errorf("relSpread of one value = %v", got)
	}
}
