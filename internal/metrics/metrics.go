// Package metrics implements the statistical machinery the paper's analysis
// uses: q-errors, percentiles, boxplot summaries (Fig. 3-5), slowdown
// buckets (Fig. 6-7 and the §4.1 table), geometric means (§5.4), and the
// linear cost/runtime regression of Fig. 8.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// QError returns the q-error of an estimate: the factor by which it differs
// from the true value, always >= 1 (paper §3.1). Zero values are smoothed to
// one row, matching how the paper's systems round estimates up.
func QError(estimate, truth float64) float64 {
	e := math.Max(estimate, 1)
	t := math.Max(truth, 1)
	if e > t {
		return e / t
	}
	return t / e
}

// SignedError returns estimate/truth with both values floored at one row:
// values > 1 are overestimates, < 1 underestimates. It is the quantity the
// paper plots on Fig. 3's log axis.
func SignedError(estimate, truth float64) float64 {
	e := math.Max(estimate, 1)
	t := math.Max(truth, 1)
	return e / t
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Max returns the maximum of xs, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of strictly positive xs, or NaN for
// empty input. The paper uses it to compare cost-model runtimes (§5.4).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Boxplot summarises a distribution with the five percentiles the paper's
// boxplots display (Fig. 3): 5th, 25th, median, 75th, 95th.
type Boxplot struct {
	N                      int
	P5, P25, P50, P75, P95 float64
	MinValue, MaxValue     float64
}

// NewBoxplot computes the summary of xs.
func NewBoxplot(xs []float64) Boxplot {
	return Boxplot{
		N:        len(xs),
		P5:       Percentile(xs, 5),
		P25:      Percentile(xs, 25),
		P50:      Percentile(xs, 50),
		P75:      Percentile(xs, 75),
		P95:      Percentile(xs, 95),
		MinValue: Min(xs),
		MaxValue: Max(xs),
	}
}

// String renders the boxplot as a compact log-scale summary.
func (b Boxplot) String() string {
	return fmt.Sprintf("n=%d p5=%.3g p25=%.3g median=%.3g p75=%.3g p95=%.3g",
		b.N, b.P5, b.P25, b.P50, b.P75, b.P95)
}

// SlowdownBuckets are the histogram bucket boundaries of Fig. 6/7 and the
// §4.1 table: [0.3,0.9) [0.9,1.1) [1.1,2) [2,10) [10,100) >=100.
var SlowdownBuckets = []float64{0.3, 0.9, 1.1, 2, 10, 100}

// BucketLabels returns human-readable labels for SlowdownBuckets.
func BucketLabels() []string {
	return []string{"<0.9", "[0.9,1.1)", "[1.1,2)", "[2,10)", "[10,100)", ">100"}
}

// BucketSlowdowns assigns each slowdown to one of the six paper buckets and
// returns per-bucket fractions (summing to 1 for non-empty input).
func BucketSlowdowns(xs []float64) []float64 {
	counts := make([]float64, 6)
	for _, x := range xs {
		switch {
		case x < 0.9:
			counts[0]++
		case x < 1.1:
			counts[1]++
		case x < 2:
			counts[2]++
		case x < 10:
			counts[3]++
		case x < 100:
			counts[4]++
		default:
			counts[5]++
		}
	}
	if len(xs) > 0 {
		for i := range counts {
			counts[i] /= float64(len(xs))
		}
	}
	return counts
}

// Regression holds an ordinary-least-squares fit y = a + b*x together with
// goodness-of-fit measures, used for the Fig. 8 cost/runtime correlation.
type Regression struct {
	N         int
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination

	// MedianAbsPctErr is the median of |y - yhat| / y, the paper's
	// "prediction error of the cost model" (§5.2, 38% for the default
	// model under true cardinalities).
	MedianAbsPctErr float64

	// Pearson is the linear correlation coefficient of (x, y).
	Pearson float64
}

// FitRegression fits y = a + b*x by least squares. It returns a zero-value
// Regression for fewer than two points.
func FitRegression(x, y []float64) Regression {
	if len(x) != len(y) || len(x) < 2 {
		return Regression{N: len(x)}
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	r := Regression{N: len(x)}
	if sxx == 0 {
		return r
	}
	r.Slope = sxy / sxx
	r.Intercept = my - r.Slope*mx
	if syy > 0 {
		r.Pearson = sxy / math.Sqrt(sxx*syy)
		var ssRes float64
		for i := range x {
			e := y[i] - (r.Intercept + r.Slope*x[i])
			ssRes += e * e
		}
		r.R2 = 1 - ssRes/syy
	}
	errs := make([]float64, 0, len(x))
	for i := range x {
		if y[i] <= 0 {
			continue
		}
		yhat := r.Intercept + r.Slope*x[i]
		errs = append(errs, math.Abs(y[i]-yhat)/y[i])
	}
	r.MedianAbsPctErr = Median(errs)
	return r
}
