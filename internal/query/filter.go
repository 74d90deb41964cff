package query

import (
	"fmt"
	"math"
	"slices"

	"jobench/internal/storage"
)

// Filter is a conjunction of base-table predicates compiled against one
// table into selection-vector kernels. It is immutable once built and safe
// for concurrent use; callers build it once per (relation predicates, table)
// and reuse it.
//
// Both kernels append the ids of the surviving rows to dst, in input order,
// and never write into their input: the first conjunct appends to dst and
// every later conjunct refines the appended run in place. NULL never
// satisfies any predicate except IS NULL, as in SQL's three-valued logic for
// these predicate forms.
type Filter struct {
	terms []term
	none  bool // some conjunct can never hold: nothing is selected
}

// termKind is the kernel a compiled predicate runs.
type termKind uint8

const (
	// termRange keeps v with lo <= v <= lo+span (unsigned span), or, when
	// neg is set, every v outside that range. Integer comparisons, string
	// equality and <> all compile to it.
	termRange termKind = iota
	// termMember keeps v whose slot v-lo of member is set: the dictionary
	// membership vector of IN/LIKE/NOT LIKE on a string column (lo = 0), or
	// the dense value set of an integer IN list.
	termMember
	// termSorted keeps v present in the sorted set: an integer IN list whose
	// values are too spread out for a membership vector.
	termSorted
	// termIsNull keeps NULL rows.
	termIsNull
	// termNotNull keeps non-NULL rows.
	termNotNull
	// termOr keeps the order-preserving union of its disjuncts.
	termOr
)

// term is one compiled predicate. vals is the column's value vector; nulls
// its NULL mask, nil when the column has none — the value kernels then run
// with no NULL test at all, and otherwise drop NULL rows from their output
// in a second pass over the survivors only.
type term struct {
	kind   termKind
	vals   []int64
	nulls  []bool
	lo     int64
	span   uint64
	neg    bool
	member []bool
	set    []int64
	disj   []term
}

// outcome classifies a compiled predicate: some rows may pass, none can, or
// every row (NULLs included) does.
type outcome uint8

const (
	someRows outcome = iota
	noRows
	allRows
)

// inIntDenseMax bounds the value span of an integer IN list that compiles
// to a membership vector; wider lists binary-search a sorted slice.
const inIntDenseMax = 1 << 16

// NewFilter compiles the conjunction preds against t. An empty conjunction
// selects every row. Errors name the first predicate that does not fit the
// table's schema.
func NewFilter(preds []*Pred, t *storage.Table) (*Filter, error) {
	f := &Filter{}
	for _, p := range preds {
		tm, out, err := compileTerm(p, t)
		if err != nil {
			return nil, err
		}
		switch out {
		case noRows:
			f.none = true
		case someRows:
			f.terms = append(f.terms, tm)
		}
	}
	if f.none {
		f.terms = nil
	}
	return f, nil
}

// compileTerm resolves one predicate against t.
func compileTerm(p *Pred, t *storage.Table) (term, outcome, error) {
	if p.Kind == PredOr {
		var disj []term
		all := false
		for _, d := range p.Disj {
			tm, out, err := compileTerm(d, t)
			if err != nil {
				return term{}, noRows, err
			}
			switch out {
			case allRows:
				all = true
			case someRows:
				disj = append(disj, tm)
			}
		}
		switch {
		case all:
			return term{}, allRows, nil
		case len(disj) == 0:
			return term{}, noRows, nil
		case len(disj) == 1:
			return disj[0], someRows, nil
		}
		return term{kind: termOr, disj: disj}, someRows, nil
	}
	col := t.Column(p.Col)
	if col == nil {
		return term{}, noRows, fmt.Errorf("query: table %q has no column %q", t.Name, p.Col)
	}
	tm := term{vals: col.Ints, nulls: col.NullMask()}
	between := func(lo, hi int64) (term, outcome, error) {
		if lo > hi {
			return term{}, noRows, nil
		}
		tm.kind, tm.lo, tm.span = termRange, lo, uint64(hi)-uint64(lo)
		return tm, someRows, nil
	}
	notNull := func() (term, outcome, error) {
		if tm.nulls == nil {
			return term{}, allRows, nil
		}
		tm.kind = termNotNull
		return tm, someRows, nil
	}
	switch p.Kind {
	case PredEqInt:
		return between(p.Val, p.Val)
	case PredNeInt:
		tm.neg = true
		return between(p.Val, p.Val)
	case PredLtInt:
		if p.Val == math.MinInt64 {
			return term{}, noRows, nil
		}
		return between(math.MinInt64, p.Val-1)
	case PredLeInt:
		return between(math.MinInt64, p.Val)
	case PredGtInt:
		if p.Val == math.MaxInt64 {
			return term{}, noRows, nil
		}
		return between(p.Val+1, math.MaxInt64)
	case PredGeInt:
		return between(p.Val, math.MaxInt64)
	case PredBetween:
		return between(p.Val, p.Val2)
	case PredInInt:
		if len(p.Vals) == 0 {
			return term{}, noRows, nil
		}
		set := slices.Clone(p.Vals)
		slices.Sort(set)
		set = slices.Compact(set)
		lo, hi := set[0], set[len(set)-1]
		if uint64(hi)-uint64(lo) >= inIntDenseMax {
			tm.kind, tm.set = termSorted, set
			return tm, someRows, nil
		}
		tm.kind, tm.lo = termMember, lo
		tm.member = make([]bool, uint64(hi)-uint64(lo)+1)
		for _, v := range set {
			tm.member[uint64(v)-uint64(lo)] = true
		}
		return tm, someRows, nil
	case PredEqStr, PredNeStr:
		if col.Kind != storage.KindString {
			return term{}, noRows, fmt.Errorf("query: string predicate on %s column %q", col.Kind, p.Col)
		}
		code, ok := col.Code(p.Str)
		if p.Kind == PredEqStr {
			if !ok {
				return term{}, noRows, nil
			}
			return between(code, code)
		}
		if !ok {
			return notNull()
		}
		tm.neg = true
		return between(code, code)
	case PredInStr:
		if col.Kind != storage.KindString {
			return term{}, noRows, fmt.Errorf("query: string predicate on %s column %q", col.Kind, p.Col)
		}
		// Dictionary codes are dense [0, DictSize), so the match set is a
		// flat bool vector indexed by code.
		tm.kind, tm.member = termMember, make([]bool, col.DictSize())
		for _, s := range p.Strs {
			if code, ok := col.Code(s); ok {
				tm.member[code] = true
			}
		}
		return tm, someRows, nil
	case PredLike, PredNotLike:
		if col.Kind != storage.KindString {
			return term{}, noRows, fmt.Errorf("query: LIKE on %s column %q", col.Kind, p.Col)
		}
		m := compileLike(p.Str)
		neg := p.Kind == PredNotLike
		tm.kind, tm.member = termMember, make([]bool, col.DictSize())
		for code, s := range col.Dict {
			tm.member[code] = m.match(s) != neg
		}
		return tm, someRows, nil
	case PredIsNull:
		if tm.nulls == nil {
			return term{}, noRows, nil
		}
		tm.kind = termIsNull
		return tm, someRows, nil
	case PredNotNull:
		return notNull()
	default:
		return term{}, noRows, fmt.Errorf("query: unknown predicate kind %d", p.Kind)
	}
}

// SelectRange appends to dst the rows of [lo, hi) that satisfy every
// conjunct, ascending.
func (f *Filter) SelectRange(dst []int32, lo, hi int) []int32 {
	if f.none || lo >= hi {
		return dst
	}
	if len(f.terms) == 0 {
		return appendRange(dst, lo, hi)
	}
	start := len(dst)
	dst = f.terms[0].selectRange(dst, lo, hi)
	return f.refine(dst, start)
}

// Select appends to dst the rows of the candidate list rows that satisfy
// every conjunct, in the order of rows. rows is only read; dst must not
// overlap it.
func (f *Filter) Select(dst, rows []int32) []int32 {
	if f.none {
		return dst
	}
	if len(f.terms) == 0 {
		return append(dst, rows...)
	}
	start := len(dst)
	dst = f.terms[0].selectRows(dst, rows)
	return f.refine(dst, start)
}

// refine applies the conjuncts after the first to dst[start:] in place.
func (f *Filter) refine(dst []int32, start int) []int32 {
	for k := 1; k < len(f.terms) && len(dst) > start; k++ {
		sel := dst[start:]
		sel = f.terms[k].selectRows(sel[:0], sel)
		dst = dst[:start+len(sel)]
	}
	return dst
}

// selectRange appends the rows of [lo, hi) that satisfy t.
func (t *term) selectRange(dst []int32, lo, hi int) []int32 {
	start := len(dst)
	switch t.kind {
	case termRange:
		dst = rangeDense(dst, t.vals, lo, hi, t.lo, t.span, t.neg)
	case termMember:
		dst = memberDense(dst, t.vals, lo, hi, t.lo, t.member)
	case termSorted:
		dst = sortedDense(dst, t.vals, lo, hi, t.set)
	case termIsNull:
		return nullDense(dst, t.nulls, lo, hi, true)
	case termNotNull:
		return nullDense(dst, t.nulls, lo, hi, false)
	case termOr:
		// Disjunctions are rare (one JOB query has one): spelling the
		// range out as a candidate list keeps a single union path.
		return t.orRows(dst, appendRange(nil, lo, hi))
	}
	if t.nulls != nil {
		dst = dropNulls(dst, start, t.nulls)
	}
	return dst
}

// selectRows appends the rows of rows that satisfy t. It is also the
// in-place refinement step: dst may be rows[:0], because every kernel
// writes slot k only after reading slot k.
func (t *term) selectRows(dst, rows []int32) []int32 {
	start := len(dst)
	switch t.kind {
	case termRange:
		dst = rangeRows(dst, t.vals, rows, t.lo, t.span, t.neg)
	case termMember:
		dst = memberRows(dst, t.vals, rows, t.lo, t.member)
	case termSorted:
		dst = sortedRows(dst, t.vals, rows, t.set)
	case termIsNull:
		return nullRows(dst, t.nulls, rows, true)
	case termNotNull:
		return nullRows(dst, t.nulls, rows, false)
	case termOr:
		return t.orRows(dst, rows)
	}
	if t.nulls != nil {
		dst = dropNulls(dst, start, t.nulls)
	}
	return dst
}

// orRows is the union of the disjuncts over a candidate list. Each
// disjunct's selection is a subsequence of rows, so walking rows once and
// keeping each row that either subsequence continues with restores input
// order even when rows is unsorted.
func (t *term) orRows(dst, rows []int32) []int32 {
	acc := t.disj[0].selectRows(nil, rows)
	var next, merged []int32
	for k := 1; k < len(t.disj); k++ {
		next = t.disj[k].selectRows(next[:0], rows)
		merged = mergeSubsequences(merged[:0], rows, acc, next)
		acc, merged = merged, acc
	}
	return append(dst, acc...)
}

// mergeSubsequences unions two subsequences a and b of rows in rows' order.
// A repeated row id passes or fails every disjunct alike, so matching
// greedily is exact.
func mergeSubsequences(dst, rows, a, b []int32) []int32 {
	i, j := 0, 0
	for _, r := range rows {
		hit := false
		if i < len(a) && a[i] == r {
			hit = true
			i++
		}
		if j < len(b) && b[j] == r {
			hit = true
			j++
		}
		if hit {
			dst = append(dst, r)
		}
	}
	return dst
}

// The range, membership and NULL kernels below append branch-free: every
// candidate is written to the next output slot and the slot is kept only
// when the row qualifies, so the loops carry no data-dependent branch.
// Output is grown to the input size up front, which is also what makes
// in-place refinement safe. The sorted-set kernels serve only wide integer
// IN lists and append plainly.

func rangeDense(dst []int32, vals []int64, lo, hi int, min int64, span uint64, neg bool) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, hi-lo)
	out := dst[n : n+hi-lo]
	k := 0
	for i, v := range vals[lo:hi] {
		out[k] = int32(lo + i)
		k += b2i((uint64(v-min) <= span) != neg)
	}
	return dst[:n+k]
}

func rangeRows(dst []int32, vals []int64, rows []int32, min int64, span uint64, neg bool) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))
	out := dst[n : n+len(rows)]
	k := 0
	for _, r := range rows {
		v := vals[r]
		out[k] = r
		k += b2i((uint64(v-min) <= span) != neg)
	}
	return dst[:n+k]
}

func memberDense(dst []int32, vals []int64, lo, hi int, min int64, member []bool) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, hi-lo)
	out := dst[n : n+hi-lo]
	k := 0
	for i, v := range vals[lo:hi] {
		out[k] = int32(lo + i)
		if u := uint64(v - min); u < uint64(len(member)) {
			k += b2i(member[u])
		}
	}
	return dst[:n+k]
}

func memberRows(dst []int32, vals []int64, rows []int32, min int64, member []bool) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))
	out := dst[n : n+len(rows)]
	k := 0
	for _, r := range rows {
		out[k] = r
		if u := uint64(vals[r] - min); u < uint64(len(member)) {
			k += b2i(member[u])
		}
	}
	return dst[:n+k]
}

func sortedDense(dst []int32, vals []int64, lo, hi int, set []int64) []int32 {
	for i, v := range vals[lo:hi] {
		if _, ok := slices.BinarySearch(set, v); ok {
			dst = append(dst, int32(lo+i))
		}
	}
	return dst
}

func sortedRows(dst []int32, vals []int64, rows []int32, set []int64) []int32 {
	for _, r := range rows {
		if _, ok := slices.BinarySearch(set, vals[r]); ok {
			dst = append(dst, r)
		}
	}
	return dst
}

// nullDense keeps the rows of [lo, hi) whose NULL flag equals want.
func nullDense(dst []int32, nulls []bool, lo, hi int, want bool) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, hi-lo)
	out := dst[n : n+hi-lo]
	k := 0
	for i, isNull := range nulls[lo:hi] {
		out[k] = int32(lo + i)
		k += b2i(isNull == want)
	}
	return dst[:n+k]
}

// nullRows keeps the rows of rows whose NULL flag equals want.
func nullRows(dst []int32, nulls []bool, rows []int32, want bool) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))
	out := dst[n : n+len(rows)]
	k := 0
	for _, r := range rows {
		out[k] = r
		k += b2i(nulls[r] == want)
	}
	return dst[:n+k]
}

// dropNulls removes NULL rows from dst[start:] in place: the value kernels
// test every row's stored value, NULL or not, and this pass over their
// survivors removes the NULLs.
func dropNulls(dst []int32, start int, nulls []bool) []int32 {
	sel := dst[start:]
	return dst[:start+len(nullRows(sel[:0], nulls, sel, false))]
}

// appendRange appends lo, lo+1, ..., hi-1 to dst.
func appendRange(dst []int32, lo, hi int) []int32 {
	start := len(dst)
	dst = slices.Grow(dst, hi-lo)[:start+hi-lo]
	for k := range dst[start:] {
		dst[start+k] = int32(lo + k)
	}
	return dst
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
