package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unicode/utf8"

	"jobench/internal/storage"
)

var (
	// intDomain mixes a small dense range (so equality and IN hit) with the
	// int64 extremes the range compilation must not overflow on.
	intDomain = []int64{-3, -2, -1, 0, 1, 2, 3, 4, 5, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}
	strDomain = []string{"", "a", "ab", "ba", "abc", "movie", "tv movie", "video movie", "50%", "a\nb"}
	// absent occurs in no column: EqStr of it selects nothing, NeStr of it
	// every non-NULL row.
	absent   = "absent"
	patterns = []string{"%", "%%", "", "a", "a%", "%a", "%a%", "a%b", "a%b%c", "%movie%", "movie%", "%ie", "50%", "%b%a%", "a%a"}
)

// randTable builds a table of up to 300 rows with an integer and a string
// column without NULLs (i, s) and with NULLs (j, u) — though a NULL column
// may still end up with none, which must take the unmasked kernels.
func randTable(rng *rand.Rand) *storage.Table {
	n := rng.Intn(301)
	i, j := storage.NewIntColumn("i"), storage.NewIntColumn("j")
	s, u := storage.NewStringColumn("s"), storage.NewStringColumn("u")
	nullRate := []float64{0, 0.05, 0.5}[rng.Intn(3)]
	for r := 0; r < n; r++ {
		i.AppendInt(randInt(rng))
		s.AppendString(strDomain[rng.Intn(len(strDomain))])
		if rng.Float64() < nullRate {
			j.AppendNull()
		} else {
			j.AppendInt(randInt(rng))
		}
		if rng.Float64() < nullRate {
			u.AppendNull()
		} else {
			u.AppendString(strDomain[rng.Intn(len(strDomain))])
		}
	}
	return storage.NewTable("t", i, j, s, u)
}

func randInt(rng *rand.Rand) int64 {
	if rng.Intn(8) == 0 {
		return intDomain[rng.Intn(len(intDomain))]
	}
	return intDomain[rng.Intn(9)]
}

func randStr(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return absent
	}
	return strDomain[rng.Intn(len(strDomain))]
}

// randPred draws a predicate of any kind; depth > 0 allows disjunctions.
func randPred(rng *rand.Rand, depth int) *Pred {
	ic := []string{"i", "j"}[rng.Intn(2)]
	sc := []string{"s", "u"}[rng.Intn(2)]
	kind := PredKind(rng.Intn(int(PredOr) + 1))
	if kind == PredOr && depth == 0 {
		kind = PredEqInt
	}
	switch kind {
	case PredEqInt:
		return EqInt(ic, randInt(rng))
	case PredNeInt:
		return NeInt(ic, randInt(rng))
	case PredLtInt:
		if rng.Intn(4) == 0 {
			return LtInt(ic, math.MinInt64)
		}
		return LtInt(ic, randInt(rng))
	case PredLeInt:
		return LeInt(ic, randInt(rng))
	case PredGtInt:
		if rng.Intn(4) == 0 {
			return GtInt(ic, math.MaxInt64)
		}
		return GtInt(ic, randInt(rng))
	case PredGeInt:
		return GeInt(ic, randInt(rng))
	case PredBetween:
		return Between(ic, randInt(rng), randInt(rng)) // lo > hi about half the time
	case PredInInt:
		vs := make([]int64, rng.Intn(5))
		for k := range vs {
			vs[k] = randInt(rng)
		}
		return InInt(ic, vs...)
	case PredEqStr:
		return EqStr(sc, randStr(rng))
	case PredNeStr:
		return NeStr(sc, randStr(rng))
	case PredInStr:
		ss := make([]string, rng.Intn(4))
		for k := range ss {
			ss[k] = randStr(rng)
		}
		return InStr(sc, ss...)
	case PredLike:
		return Like(sc, patterns[rng.Intn(len(patterns))])
	case PredNotLike:
		return NotLike(sc, patterns[rng.Intn(len(patterns))])
	case PredIsNull:
		return IsNull([]string{"i", "j", "s", "u"}[rng.Intn(4)])
	case PredNotNull:
		return NotNull([]string{"i", "j", "s", "u"}[rng.Intn(4)])
	default:
		ds := make([]*Pred, 1+rng.Intn(3))
		for k := range ds {
			ds[k] = randPred(rng, depth-1)
		}
		return Or(ds...)
	}
}

// candidates draws a sparse, unsorted candidate list. Some lists repeat
// rows, as an index join's batch of fetched tuples does when two outer
// tuples fetch the same inner row.
func candidates(rng *rand.Rand, n int) []int32 {
	density := []float64{0.1, 0.5, 1}[rng.Intn(3)]
	repeats := rng.Intn(2) == 0
	var rows []int32
	for _, r := range rng.Perm(n) {
		if rng.Float64() < density {
			rows = append(rows, int32(r))
		}
		if repeats && len(rows) > 0 && rng.Intn(4) == 0 {
			rows = append(rows, rows[rng.Intn(len(rows))])
		}
	}
	return rows
}

// TestFilterMatchesOracle: on random tables and random conjunctions of one
// to four predicates of every kind, both kernels select exactly what the
// row-at-a-time oracle does, in input order, append after dst's contents
// and leave the candidate list untouched.
func TestFilterMatchesOracle(t *testing.T) {
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	rng := rand.New(rand.NewSource(1))
	o := newOracle()
	for it := 0; it < iters; it++ {
		tbl := randTable(rng)
		preds := make([]*Pred, 1+rng.Intn(4))
		for k := range preds {
			preds[k] = randPred(rng, 2)
		}
		f, err := NewFilter(preds, tbl)
		if err != nil {
			t.Fatalf("%v: %v", preds, err)
		}
		n := tbl.NumRows()
		prefix := []int32{-1, -2}

		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		want := slices.Clone(prefix)
		for r := lo; r < hi; r++ {
			if o.matchAll(preds, tbl, r) {
				want = append(want, int32(r))
			}
		}
		if got := f.SelectRange(slices.Clone(prefix), lo, hi); !slices.Equal(got, want) {
			t.Fatalf("iteration %d: %v over [%d,%d):\n got %v\nwant %v", it, preds, lo, hi, got, want)
		}

		rows := candidates(rng, n)
		orig := slices.Clone(rows)
		want = slices.Clone(prefix)
		for _, r := range rows {
			if o.matchAll(preds, tbl, int(r)) {
				want = append(want, r)
			}
		}
		if got := f.Select(slices.Clone(prefix), rows); !slices.Equal(got, want) {
			t.Fatalf("iteration %d: %v over %v:\n got %v\nwant %v", it, preds, rows, got, want)
		}
		if !slices.Equal(rows, orig) {
			t.Fatalf("iteration %d: Select wrote into its candidate list", it)
		}
	}
}

// TestFilterEdgeCases pins the compile-time shortcuts by name.
func TestFilterEdgeCases(t *testing.T) {
	tbl := testTable() // 40 rows; year is NULL on every tenth
	cases := []struct {
		p    *Pred
		want int
	}{
		{NeStr("kind", "absent"), 40},
		{NeStr("year", "absent"), -1}, // string predicate on an int column
		{EqStr("kind", "absent"), 0},
		{LtInt("year", math.MinInt64), 0},
		{LeInt("year", math.MaxInt64), 36},
		{GtInt("year", math.MaxInt64), 0},
		{GeInt("year", math.MinInt64), 36},
		{Between("year", 1999, 1990), 0},
		{InInt("id"), 0},
		{InInt("id", 3, math.MaxInt64, 3, -5), 1}, // sparse set, duplicates
		{IsNull("id"), 0},
		{NotNull("id"), 40},
		{Or(EqStr("kind", "absent"), IsNull("id")), 0},
		{Or(NotNull("id"), EqInt("year", 1)), 40},
		{Or(IsNull("year"), EqInt("id", 0)), 5},
	}
	for _, c := range cases {
		f, err := NewFilter([]*Pred{c.p}, tbl)
		if c.want < 0 {
			if err == nil {
				t.Errorf("%s: accepted", c.p)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		got := f.SelectRange(nil, 0, tbl.NumRows())
		if want := OracleSelect([]*Pred{c.p}, tbl); len(got) != c.want || !slices.Equal(got, want) {
			t.Errorf("%s: selected %v, want %d rows %v", c.p, got, c.want, want)
		}
	}
}

// FuzzLikeMatch checks LikeMatch and the precompiled matcher against the
// regular-expression reference. Every LIKE membership vector is built from
// this function, so the kernels are only as right as it is. Plain `go test`
// runs the seed corpus: every test pattern against every test string.
func FuzzLikeMatch(f *testing.F) {
	for _, p := range patterns {
		for _, s := range strDomain {
			f.Add(s, p)
		}
	}
	f.Add("character-name-in-title", "%character%")
	f.Add("aXbXc", "a%b%c")
	f.Fuzz(func(t *testing.T, s, pattern string) {
		// Go's regexp reads invalid UTF-8 as U+FFFD, which is not bytewise
		// matching; LIKE's contract is over strings the generator produces.
		if !utf8.ValidString(s) || !utf8.ValidString(pattern) {
			t.Skip()
		}
		want := likeRegexp(pattern).MatchString(s)
		m := compileLike(pattern)
		if got := LikeMatch(s, pattern); got != want {
			t.Fatalf("LikeMatch(%q, %q) = %v, reference %v", s, pattern, got, want)
		}
		if got := m.match(s); got != want {
			t.Fatalf("compileLike(%q).match(%q) = %v, reference %v", pattern, s, got, want)
		}
	})
}

// BenchmarkSelect isolates the kernels on a 1M-row table, reporting ns per
// input row: a range compare with and without a NULL mask, dictionary
// membership (LIKE), a three-predicate conjunction, and a candidate list
// of about 10% of the rows, unsorted.
func BenchmarkSelect(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(7))
	a, an := storage.NewIntColumn("a"), storage.NewIntColumn("an")
	s := storage.NewStringColumn("s")
	for r := 0; r < n; r++ {
		a.AppendInt(int64(rng.Intn(1000)))
		if rng.Intn(10) == 0 {
			an.AppendNull()
		} else {
			an.AppendInt(int64(rng.Intn(1000)))
		}
		s.AppendString(fmt.Sprintf("name-%d", rng.Intn(5000)))
	}
	tbl := storage.NewTable("t", a, an, s)
	var sparse []int32
	for _, r := range rng.Perm(n) {
		if rng.Intn(10) == 0 {
			sparse = append(sparse, int32(r))
		}
	}
	cases := []struct {
		name  string
		preds []*Pred
		rows  []int32 // nil: the dense range [0, n)
	}{
		{"range", []*Pred{Between("a", 100, 599)}, nil},
		{"range-nullmask", []*Pred{Between("an", 100, 599)}, nil},
		{"like", []*Pred{Like("s", "%-1%")}, nil},
		{"conj3", []*Pred{Between("a", 100, 599), LtInt("an", 800), Like("s", "%-1%")}, nil},
		{"sparse10", []*Pred{Between("a", 100, 599), Like("s", "%-1%")}, sparse},
	}
	for _, c := range cases {
		f, err := NewFilter(c.preds, tbl)
		if err != nil {
			b.Fatal(err)
		}
		in := n
		if c.rows != nil {
			in = len(c.rows)
		}
		b.Run(c.name, func(b *testing.B) {
			dst := make([]int32, 0, in)
			for i := 0; i < b.N; i++ {
				if c.rows != nil {
					dst = f.Select(dst[:0], c.rows)
				} else {
					dst = f.SelectRange(dst[:0], 0, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in), "ns/row")
		})
	}
}
