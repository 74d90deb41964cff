package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est, truth, want float64
	}{
		{100, 100, 1},
		{10, 100, 10},
		{1000, 100, 10}, // paper's example: both 10 and 1000 have q-error 10
		{0, 100, 100},   // zero estimates are floored at one row
		{100, 0, 100},
		{0.5, 1, 1},
	}
	for _, c := range cases {
		if got := QError(c.est, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QError(%g,%g) = %g, want %g", c.est, c.truth, got, c.want)
		}
	}
}

func TestSignedError(t *testing.T) {
	if got := SignedError(10, 100); got != 0.1 {
		t.Fatalf("under: %g", got)
	}
	if got := SignedError(1000, 100); got != 10 {
		t.Fatalf("over: %g", got)
	}
}

// Property: q-error is symmetric in over/under direction and always >= 1.
func TestQErrorProperties(t *testing.T) {
	f := func(a, b uint32) bool {
		e, tr := float64(a%1_000_000)+1, float64(b%1_000_000)+1
		q := QError(e, tr)
		return q >= 1 && math.Abs(q-QError(tr, e)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("median = %g", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %g", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 = %g", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Fatalf("interpolated median = %g", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 uint8) bool {
		xs := raw[:0:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		va, vb := Percentile(xs, a), Percentile(xs, b)
		return va <= vb && va >= Min(xs) && vb <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{1, 4, 16}
	if got := Mean(xs); got != 7 {
		t.Fatalf("Mean = %g", got)
	}
	if got := GeoMean(xs); math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean = %g, want 4", got)
	}
	if Min(xs) != 1 || Max(xs) != 16 {
		t.Fatal("min/max broken")
	}
}

func TestBoxplot(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	b := NewBoxplot(xs)
	if b.N != 101 || b.P50 != 50 || b.P5 != 5 || b.P95 != 95 || b.P25 != 25 || b.P75 != 75 {
		t.Fatalf("boxplot = %+v", b)
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBucketSlowdowns(t *testing.T) {
	xs := []float64{0.5, 1.0, 1.5, 5, 50, 500}
	fr := BucketSlowdowns(xs)
	for i, f := range fr {
		if math.Abs(f-1.0/6) > 1e-12 {
			t.Fatalf("bucket %d frac = %g", i, f)
		}
	}
	if len(BucketLabels()) != 6 {
		t.Fatal("want 6 bucket labels")
	}
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %g", sum)
	}
}

func TestRegressionPerfectFit(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	r := FitRegression(x, y)
	if math.Abs(r.Slope-2) > 1e-9 || math.Abs(r.Intercept-1) > 1e-9 {
		t.Fatalf("fit = %+v", r)
	}
	if math.Abs(r.R2-1) > 1e-9 || math.Abs(r.Pearson-1) > 1e-9 {
		t.Fatalf("R2/Pearson = %g/%g", r.R2, r.Pearson)
	}
	if r.MedianAbsPctErr > 1e-9 {
		t.Fatalf("MedianAbsPctErr = %g", r.MedianAbsPctErr)
	}
}

func TestRegressionDegenerate(t *testing.T) {
	r := FitRegression([]float64{1}, []float64{2})
	if r.N != 1 || r.Slope != 0 {
		t.Fatalf("degenerate fit = %+v", r)
	}
	r = FitRegression([]float64{2, 2, 2}, []float64{1, 5, 9})
	if r.Slope != 0 {
		t.Fatalf("constant-x fit slope = %g", r.Slope)
	}
}

func TestRegressionNoisyCorrelation(t *testing.T) {
	var x, y []float64
	for i := 0; i < 100; i++ {
		x = append(x, float64(i))
		noise := float64(i%7) - 3
		y = append(y, 10+3*float64(i)+noise)
	}
	r := FitRegression(x, y)
	if r.Pearson < 0.99 {
		t.Fatalf("Pearson = %g, want near 1", r.Pearson)
	}
	if math.Abs(r.Slope-3) > 0.1 {
		t.Fatalf("Slope = %g, want ~3", r.Slope)
	}
}
