package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Expected quartiles are Python's statistics.quantiles(xs, n=4).
		{xs: []float64{5}, med: 5, q1: 5, q3: 5},
		{xs: []float64{3, 1}, med: 2, q1: 0.5, q3: 3.5},
		{xs: []float64{4, 1, 3, 2}, med: 2.5, q1: 1.25, q3: 3.75},
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, med: 5.5, q1: 2.75, q3: 8.25},
		{xs: []float64{7, 1, 5, 3, 9}, med: 5, q1: 2, q3: 8},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	// Ten samples lose one from each end at 10%.
	if got := trimmedMean([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}, 0.1); got != 4.5 {
		t.Errorf("trimmedMean = %v, want 4.5", got)
	}
	if !math.IsNaN(trimmedMean(nil, 0.1)) {
		t.Error("trimmed mean of no samples should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	// 200 samples leave exactly 10 beyond the nearest-rank p95 (the 190th).
	if b := beyond(200, 95); b != 10 {
		t.Fatalf("beyond(200, 95) = %d, want 10", b)
	}
	if v, ok := tail(ramp(200), 95); !ok || v != 190 {
		t.Errorf("tail(200 samples, 95) = %v, %v; want 190, true", v, ok)
	}
	// One sample fewer leaves 9 beyond: the median is reported instead.
	if v, ok := tail(ramp(199), 95); ok || v != 100 {
		t.Errorf("tail(199 samples, 95) = %v, %v; want the median 100, false", v, ok)
	}
	if v, ok := tail(ramp(5), 95); ok || v != 3 {
		t.Errorf("tail(5 samples, 95) = %v, %v; want the median 3, false", v, ok)
	}
	// p90 of 100 samples has 10 beyond.
	if v, ok := tail(ramp(100), 90); !ok || v != 90 {
		t.Errorf("tail(100 samples, 90) = %v, %v; want 90, true", v, ok)
	}
}
