package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. It is exact — no interpolation, no buckets.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9% of 10000 is 9990, not 9990.000000000002
	return min(max(r, 1), n)
}

// samplesBeyond counts the samples strictly above the p-th percentile's rank.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// median returns the middle value of values (mean of the middle two for an
// even count). values is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the default "exclusive" method),
// which is what the driver uses for its spread check. Fewer than two values
// have no spread: both quartiles collapse onto the single value.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s)
		j := i * (m + 1) / n
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
