package costmodel

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func models() []Model {
	return []Model{NewPostgres(), NewTuned(), NewSimple()}
}

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range models() {
		if m.Name() == "" || seen[m.Name()] {
			t.Fatalf("bad or duplicate model name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}

func TestSimpleMatchesPaperFormulas(t *testing.T) {
	s := NewSimple()
	if s.Tau != 0.2 || s.Lambda != 2 {
		t.Fatalf("parameters τ=%g λ=%g, want 0.2/2 (§5.4)", s.Tau, s.Lambda)
	}
	// C_mm(R) = τ|R|.
	if got := s.ScanCost(1000, 64); got != 200 {
		t.Fatalf("scan = %g, want 200", got)
	}
	// Hash join contributes |T| only.
	if got := s.HashJoinCost(50, 70, 123); got != 123 {
		t.Fatalf("hash join = %g, want 123", got)
	}
	// INL: λ·max(lookups, outer); the matching count dominates when the
	// fanout exceeds 1...
	if got := s.IndexJoinCost(100, 450, 450, 10000, 64); got != 900 {
		t.Fatalf("INL = %g, want 900", got)
	}
	// ...and the outer size dominates when lookups find little.
	if got := s.IndexJoinCost(100, 7, 7, 10000, 64); got != 200 {
		t.Fatalf("INL = %g, want 200", got)
	}
	// NLJ touches every pair.
	if got := s.NestedLoopJoinCost(100, 100, 5); got != 10005 {
		t.Fatalf("NLJ = %g, want 10005", got)
	}
}

func TestTunedRaisesCPUWeightsOnly(t *testing.T) {
	pg, tuned := NewPostgres(), NewTuned()
	if tuned.CPUTuple != 50*pg.CPUTuple || tuned.CPUOp != 50*pg.CPUOp || tuned.CPUIndex != 50*pg.CPUIndex {
		t.Fatal("CPU weights not multiplied by 50")
	}
	if tuned.SeqPage != pg.SeqPage || tuned.RandPage != pg.RandPage {
		t.Fatal("I/O weights must stay unchanged")
	}
	// The default parameters imply tuple processing is ~400x cheaper than
	// reading a page sequentially (8KB page / ~200B tuple at width 200:
	// page cost 1 vs cpu 0.01 per tuple) — the §5.3 motivation.
	ratio := pg.SeqPage / pg.CPUTuple
	if ratio < 50 || ratio > 1000 {
		t.Fatalf("I/O-to-CPU ratio = %g, implausible", ratio)
	}
}

func TestPostgresDisfavoursRandomAccess(t *testing.T) {
	pg := NewPostgres()
	// Fetching n tuples by index must cost more than scanning n tuples
	// sequentially once n approaches the table size.
	scan := pg.ScanCost(10000, 64)
	inl := pg.IndexJoinCost(10000, 10000, 10000, 10000, 64)
	if inl < scan {
		t.Fatalf("full-table index fetch (%g) cheaper than scan (%g)", inl, scan)
	}
}

// Property: all costs are non-negative, finite, and monotone in output size.
func TestCostProperties(t *testing.T) {
	f := func(a, b, c uint32) bool {
		l := float64(a%1_000_000) + 1
		r := float64(b%1_000_000) + 1
		out := float64(c % 10_000_000)
		for _, m := range models() {
			vals := []float64{
				m.ScanCost(l, 64),
				m.HashJoinCost(l, r, out),
				m.SortMergeJoinCost(l, r, out),
				m.NestedLoopJoinCost(l, r, out),
				m.IndexJoinCost(l, out, out, r, 64),
			}
			for _, v := range vals {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
			if m.HashJoinCost(l, r, out+1000) < m.HashJoinCost(l, r, out) {
				return false
			}
			if m.NestedLoopJoinCost(l+1000, r, out) < m.NestedLoopJoinCost(l, r, out) {
				return false
			}
			if m.SortMergeJoinCost(l, r, out) <= m.HashJoinCost(l, r, out) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSortMergeAboveHashJoin: no plan has a sort-merge join because,
// under every model, it costs strictly more than a hash join of the same
// inputs (Model.SortMergeJoinCost gives the derivation). The grid
// covers the sort's n < 2 branch and its edge at 2, where the margin is
// smallest, and sizes far beyond any JOB intermediate.
func TestSortMergeAboveHashJoin(t *testing.T) {
	sizes := []float64{0, 0.5, 1, 1.5, 1.999, 2, 3, 1e6, 1e12}
	for _, m := range models() {
		for _, l := range sizes {
			for _, r := range sizes {
				for _, out := range []float64{0, 1, 1e9} {
					sm, hj := m.SortMergeJoinCost(l, r, out), m.HashJoinCost(l, r, out)
					if !(sm > hj) {
						t.Errorf("%s: sort-merge(%g, %g, %g) = %v, not above hash join %v", m.Name(), l, r, out, sm, hj)
					}
				}
			}
		}
	}
}

// TestIndexJoinCostMonotoneInLookups: IndexJoinCost never decreases as
// lookups grows, which is what lets the enumerators skip an index-nested-loop
// join whose cost at zero lookups already loses (Model.IndexJoinCost). The
// lookups grid straddles PostgreSQL's min(lookups, pages) kink for each
// inner size: a page count, its neighbours and the next float above it.
func TestIndexJoinCostMonotoneInLookups(t *testing.T) {
	for _, m := range models() {
		for _, outer := range []float64{0, 1, 37, 1e6} {
			for _, out := range []float64{0, 1, 1e9} {
				for _, innerRows := range []float64{0, 1, 81, 82, 1e5, 2.5e6} {
					for _, innerWidth := range []float64{1, 100, 8192} {
						pages := math.Ceil(innerRows * innerWidth / 8192)
						lookups := []float64{0, 0.5, 1, 2, 1e3, 1e9}
						for _, p := range []float64{pages - 1, pages, math.Nextafter(pages, math.Inf(1)), pages + 1} {
							if p >= 0 {
								lookups = append(lookups, p)
							}
						}
						slices.Sort(lookups)
						prev := math.Inf(-1)
						for _, l := range lookups {
							c := m.IndexJoinCost(outer, l, out, innerRows, innerWidth)
							if c < prev {
								t.Errorf("%s: IndexJoinCost(%g, %g, %g, %g, %g) = %v, below %v at fewer lookups",
									m.Name(), outer, l, out, innerRows, innerWidth, c, prev)
							}
							prev = c
						}
					}
				}
			}
		}
	}
}

func TestNestedLoopRiskAsymmetry(t *testing.T) {
	// §4.1: the payoff of NLJ over HJ is tiny when it wins, but the loss is
	// catastrophic when cardinalities are bigger than estimated. Verify the
	// asymmetry in the PostgreSQL model: at estimated cardinality 1 the NLJ
	// may be marginally cheaper, at true cardinality 10000 it is orders of
	// magnitude more expensive.
	pg := NewPostgres()
	nlSmall := pg.NestedLoopJoinCost(1, 100, 1)
	hjSmall := pg.HashJoinCost(1, 100, 1)
	nlBig := pg.NestedLoopJoinCost(10000, 100000, 10000)
	hjBig := pg.HashJoinCost(10000, 100000, 10000)
	if nlSmall > hjSmall {
		t.Logf("NLJ not even cheaper at tiny cardinalities (%g vs %g) — fine", nlSmall, hjSmall)
	}
	if nlBig < 100*hjBig {
		t.Fatalf("NLJ (%g) not catastrophically worse than HJ (%g) at scale", nlBig, hjBig)
	}
}
