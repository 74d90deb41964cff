package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// A tail percentile may be quoted only with at least ten samples beyond it:
// p99 needs 1000 samples, and truth.cold's passes of 113 support p95 from two
// passes on.
func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99, 10}, {999, 99, 9}, {226, 95, 11}, {113, 95, 5}, {452, 95, 22}, {452, 99, 4}, {10000, 99.9, 10}, {10, 50, 5}} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 90},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
