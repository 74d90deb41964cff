// Package stats implements the per-attribute statistics a PostgreSQL-style
// ANALYZE collects from a table sample: most-common values with their
// frequencies, equi-depth histograms (quantile statistics), null fractions,
// and sample-based distinct-count estimation, plus reservoir table samples
// (HyPer-style) and exact distinct counts (for the paper's Fig. 5
// experiment).
package stats

import (
	"math"
	"math/rand"
	"sort"

	"jobench/internal/storage"
)

// MCV is one most-common-value entry: a value and its estimated fraction of
// all rows.
type MCV struct {
	Val  int64
	Frac float64
}

// ColumnStats are the per-attribute statistics for one column.
type ColumnStats struct {
	Col      string
	IsString bool

	RowCount  int     // rows in the table
	NullFrac  float64 // fraction of NULL rows (from the sample)
	NDistinct float64 // estimated number of distinct non-NULL values

	// TrueDistinct is the exact distinct count (computed only when
	// AnalyzeOptions.TrueDistinct is set, or by ComputeTrueDistinct).
	TrueDistinct float64

	MCVs    []MCV // most common values, descending by frequency
	mcvSet  map[int64]float64
	MCVFrac float64 // total fraction covered by the MCVs

	// Hist holds nb+1 equi-depth bucket bounds over the sampled non-MCV
	// values, ascending. Empty when too few values remain.
	Hist []int64

	// Lo and Hi are the observed min/max in the sample.
	Lo, Hi int64
}

// RestoreMCVIndex rebuilds the column's MCV lookup map from the exported
// MCVs slice. Decoders call it after reconstructing a ColumnStats from a
// snapshot; Analyze-built statistics never need it.
func (c *ColumnStats) RestoreMCVIndex() {
	c.mcvSet = make(map[int64]float64, len(c.MCVs))
	for _, m := range c.MCVs {
		c.mcvSet[m.Val] = m.Frac
	}
}

// MCVFracOf returns the frequency of v if v is an MCV.
func (c *ColumnStats) MCVFracOf(v int64) (float64, bool) {
	f, ok := c.mcvSet[v]
	return f, ok
}

// TableStats bundles per-column statistics, the table sample, and the row
// count.
type TableStats struct {
	Table    string
	RowCount int
	Cols     map[string]*ColumnStats

	// SampleRows are row ids of a uniform reservoir sample of the table
	// (the HyPer-style base-table estimation sample).
	SampleRows []int32
}

// Options control ANALYZE.
type Options struct {
	// SampleSize is the number of rows sampled per table (PostgreSQL with
	// default_statistics_target=100 samples 30000).
	SampleSize int
	// MCVTarget is the maximum number of most-common values kept.
	MCVTarget int
	// HistBuckets is the number of equi-depth histogram buckets.
	HistBuckets int
	// TrueDistinct computes exact distinct counts instead of estimating
	// them from the sample (the paper's Fig. 5 variant).
	TrueDistinct bool
	// Seed makes sampling deterministic.
	Seed int64
}

// DefaultOptions mirror PostgreSQL's default statistics target, sampling
// under seed. The facade's statistics and Fig. 4's TPC-H side are both
// this value, so they share one ANALYZE and one snapshot file.
func DefaultOptions(seed int64) Options {
	return Options{SampleSize: 30000, MCVTarget: 100, HistBuckets: 100, Seed: seed}
}

// Analyze computes statistics for every column of t.
func Analyze(t *storage.Table, opts Options) *TableStats {
	if opts.SampleSize <= 0 {
		opts.SampleSize = 30000
	}
	if opts.MCVTarget <= 0 {
		opts.MCVTarget = 100
	}
	if opts.HistBuckets <= 0 {
		opts.HistBuckets = 100
	}
	ts := &TableStats{
		Table:    t.Name,
		RowCount: t.NumRows(),
		Cols:     make(map[string]*ColumnStats, len(t.Cols)),
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ int64(len(t.Name))<<32 ^ hashString(t.Name)))
	ts.SampleRows = reservoir(t.NumRows(), opts.SampleSize, rng)
	for _, col := range t.Cols {
		ts.Cols[col.Name] = analyzeColumn(col, ts.SampleRows, t.NumRows(), opts)
	}
	return ts
}

func hashString(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// reservoir returns min(n, k) row ids sampled uniformly without replacement.
func reservoir(n, k int, rng *rand.Rand) []int32 {
	if n <= k {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	res := make([]int32, k)
	for i := 0; i < k; i++ {
		res[i] = int32(i)
	}
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			res[j] = int32(i)
		}
	}
	return res
}

func analyzeColumn(col *storage.Column, sample []int32, rowCount int, opts Options) *ColumnStats {
	cs := &ColumnStats{
		Col:      col.Name,
		IsString: col.Kind == storage.KindString,
		RowCount: rowCount,
		mcvSet:   make(map[int64]float64),
	}
	counts := make(map[int64]int)
	nulls := 0
	var nonNull []int64
	for _, row := range sample {
		if col.IsNull(int(row)) {
			nulls++
			continue
		}
		v := col.Ints[row]
		counts[v]++
		nonNull = append(nonNull, v)
	}
	sampleN := len(sample)
	if sampleN == 0 {
		cs.NDistinct = 1
		return cs
	}
	cs.NullFrac = float64(nulls) / float64(sampleN)
	if len(nonNull) == 0 {
		cs.NDistinct = 1
		return cs
	}
	sort.Slice(nonNull, func(i, j int) bool { return nonNull[i] < nonNull[j] })
	cs.Lo, cs.Hi = nonNull[0], nonNull[len(nonNull)-1]

	// Distinct estimation. Either exact (Fig. 5 variant) or PostgreSQL's
	// Duj1 estimator: n*d / (n - f1 + f1*n/N), where d is the number of
	// distinct values in the sample, f1 the number of values occurring
	// exactly once, n the sample size and N the table size. Duj1 is known
	// to underestimate badly for large skewed tables, which §3.4 exploits.
	if opts.TrueDistinct {
		cs.NDistinct = exactDistinct(col)
		cs.TrueDistinct = cs.NDistinct
	} else {
		d := float64(len(counts))
		f1 := 0.0
		for _, c := range counts {
			if c == 1 {
				f1++
			}
		}
		n := float64(len(nonNull))
		bigN := float64(rowCount)
		if n >= bigN || f1 == 0 {
			cs.NDistinct = d
		} else {
			denom := n - f1 + f1*n/bigN
			if denom < 1 {
				denom = 1
			}
			est := n * d / denom
			if est < d {
				est = d
			}
			if est > bigN {
				est = bigN
			}
			cs.NDistinct = est
		}
	}
	if cs.NDistinct < 1 {
		cs.NDistinct = 1
	}

	// Most common values: keep up to MCVTarget values that occur more than
	// once in the sample (PostgreSQL keeps values deemed more frequent than
	// average; "occurs at least twice" is its minimum bar).
	type vc struct {
		v int64
		c int
	}
	vcs := make([]vc, 0, len(counts))
	for v, c := range counts {
		if c >= 2 {
			vcs = append(vcs, vc{v, c})
		}
	}
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].c != vcs[j].c {
			return vcs[i].c > vcs[j].c
		}
		return vcs[i].v < vcs[j].v
	})
	if len(vcs) > opts.MCVTarget {
		vcs = vcs[:opts.MCVTarget]
	}
	mcvValues := make(map[int64]bool, len(vcs))
	for _, e := range vcs {
		frac := float64(e.c) / float64(sampleN)
		cs.MCVs = append(cs.MCVs, MCV{Val: e.v, Frac: frac})
		cs.mcvSet[e.v] = frac
		cs.MCVFrac += frac
		mcvValues[e.v] = true
	}

	// Equi-depth histogram over the non-MCV sampled values.
	rest := nonNull[:0:0]
	for _, v := range nonNull {
		if !mcvValues[v] {
			rest = append(rest, v)
		}
	}
	nb := opts.HistBuckets
	if len(rest) >= 2 {
		if nb > len(rest)-1 {
			nb = len(rest) - 1
		}
		if nb >= 1 {
			cs.Hist = make([]int64, nb+1)
			for i := 0; i <= nb; i++ {
				pos := i * (len(rest) - 1) / nb
				cs.Hist[i] = rest[pos]
			}
		}
	}
	return cs
}

func exactDistinct(col *storage.Column) float64 {
	if col.Kind == storage.KindString {
		// The dictionary may contain strings from rows later overwritten;
		// count codes actually present.
		seen := make(map[int64]struct{})
		for i, v := range col.Ints {
			if !col.IsNull(i) {
				seen[v] = struct{}{}
			}
		}
		return float64(len(seen))
	}
	seen := make(map[int64]struct{})
	for i, v := range col.Ints {
		if !col.IsNull(i) {
			seen[v] = struct{}{}
		}
	}
	return math.Max(1, float64(len(seen)))
}

// HistFracLE returns the estimated fraction of non-MCV, non-NULL values
// that are <= v according to the histogram, with linear interpolation
// within buckets.
func (c *ColumnStats) HistFracLE(v int64) float64 {
	h := c.Hist
	if len(h) < 2 {
		// No histogram: fall back to a uniform range assumption.
		if c.Hi == c.Lo {
			if v >= c.Hi {
				return 1
			}
			return 0
		}
		f := float64(v-c.Lo+1) / float64(c.Hi-c.Lo+1)
		return clamp01(f)
	}
	if v < h[0] {
		return 0
	}
	if v >= h[len(h)-1] {
		return 1
	}
	nb := len(h) - 1
	// Find the bucket containing v.
	i := sort.Search(nb, func(i int) bool { return h[i+1] > v })
	lo, hi := h[i], h[i+1]
	within := 1.0
	if hi > lo {
		within = float64(v-lo) / float64(hi-lo)
	}
	return (float64(i) + within) / float64(nb)
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// DB holds statistics for a whole catalog.
type DB struct {
	Tables map[string]*TableStats
}

// AnalyzeDatabase runs Analyze over every table of db.
func AnalyzeDatabase(db *storage.Database, opts Options) *DB {
	out := &DB{Tables: make(map[string]*TableStats)}
	for _, name := range db.TableNames() {
		out.Tables[name] = Analyze(db.Table(name), opts)
	}
	return out
}

// Table returns the statistics of one table, or nil.
func (d *DB) Table(name string) *TableStats { return d.Tables[name] }
