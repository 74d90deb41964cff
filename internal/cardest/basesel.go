package cardest

import (
	"math"

	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
)

// histogramBase is PostgreSQL's base-table selectivity logic: MCV lists,
// equi-depth histograms, distinct counts, and magic constants where
// statistics cannot help (LIKE). Conjunctions multiply (independence).
type histogramBase struct {
	likeSel float64
}

func (h histogramBase) relSelectivity(rel query.Rel, t *storage.Table, ts *stats.TableStats) float64 {
	sel := 1.0
	for _, p := range rel.Preds {
		sel *= h.predSelectivity(p, t, ts)
	}
	return sel
}

func (h histogramBase) predSelectivity(p *query.Pred, t *storage.Table, ts *stats.TableStats) float64 {
	cs := ts.Cols[p.Col]
	if p.Kind == query.PredOr {
		// s1 OR s2: s1 + s2 - s1*s2, folded left.
		sel := 0.0
		for _, d := range p.Disj {
			s := h.predSelectivity(d, t, ts)
			sel = sel + s - sel*s
		}
		return clampSel(sel)
	}
	if cs == nil {
		return 0.1 // unknown column: a magic constant
	}
	col := t.Column(p.Col)
	switch p.Kind {
	case query.PredEqInt:
		return h.eqSel(cs, p.Val, true)
	case query.PredEqStr:
		code, ok := col.Code(p.Str)
		if !ok {
			// Value absent from the dictionary: histogram systems still
			// assume it might exist and charge a uniform share.
			return 1 / math.Max(1, cs.NDistinct)
		}
		return h.eqSel(cs, code, true)
	case query.PredNeInt:
		return clampSel(1 - cs.NullFrac - h.eqSel(cs, p.Val, true))
	case query.PredNeStr:
		code, ok := col.Code(p.Str)
		if !ok {
			return clampSel(1 - cs.NullFrac)
		}
		return clampSel(1 - cs.NullFrac - h.eqSel(cs, code, true))
	case query.PredLtInt:
		return h.rangeLE(cs, p.Val-1)
	case query.PredLeInt:
		return h.rangeLE(cs, p.Val)
	case query.PredGtInt:
		return clampSel(1 - cs.NullFrac - h.rangeLE(cs, p.Val))
	case query.PredGeInt:
		return clampSel(1 - cs.NullFrac - h.rangeLE(cs, p.Val-1))
	case query.PredBetween:
		return clampSel(h.rangeLE(cs, p.Val2) - h.rangeLE(cs, p.Val-1))
	case query.PredInInt:
		sel := 0.0
		for _, v := range p.Vals {
			sel += h.eqSel(cs, v, true)
		}
		return clampSel(sel)
	case query.PredInStr:
		sel := 0.0
		for _, s := range p.Strs {
			if code, ok := col.Code(s); ok {
				sel += h.eqSel(cs, code, true)
			} else {
				sel += 1 / math.Max(1, cs.NDistinct)
			}
		}
		return clampSel(sel)
	case query.PredLike:
		return h.likeSel
	case query.PredNotLike:
		return clampSel(1 - h.likeSel)
	case query.PredIsNull:
		return clampSel(cs.NullFrac)
	case query.PredNotNull:
		return clampSel(1 - cs.NullFrac)
	default:
		return 0.1
	}
}

// eqSel estimates col = v: MCV frequency if v is an MCV, otherwise a uniform
// share of the non-MCV remainder.
func (h histogramBase) eqSel(cs *stats.ColumnStats, v int64, useMCV bool) float64 {
	if useMCV {
		if f, ok := cs.MCVFracOf(v); ok {
			return f
		}
	}
	rest := 1 - cs.MCVFrac - cs.NullFrac
	if rest <= 0 {
		return 0
	}
	d := cs.NDistinct - float64(len(cs.MCVs))
	if d < 1 {
		d = 1
	}
	return clampSel(rest / d)
}

// rangeLE estimates col <= v combining the MCV list with the histogram over
// the remainder.
func (h histogramBase) rangeLE(cs *stats.ColumnStats, v int64) float64 {
	sel := 0.0
	for _, m := range cs.MCVs {
		if m.Val <= v {
			sel += m.Frac
		}
	}
	rest := 1 - cs.MCVFrac - cs.NullFrac
	if rest > 0 {
		sel += rest * cs.HistFracLE(v)
	}
	return clampSel(sel)
}

// sampleBase evaluates the predicate conjunction on the table sample, the
// HyPer approach (§3.1): excellent for any predicate form as long as the
// selectivity is not below ~1/sample size, where it falls back to a magic
// constant.
type sampleBase struct {
	size int
}

// sampleChunk is how many sample rows one Select counts at a time.
const sampleChunk = 1024

func (s sampleBase) relSelectivity(rel query.Rel, t *storage.Table, ts *stats.TableStats) float64 {
	if len(rel.Preds) == 0 {
		return 1
	}
	f, err := query.NewFilter(rel.Preds, t)
	if err != nil {
		return 0.1
	}
	sample := ts.SampleRows
	if s.size > 0 && len(sample) > s.size {
		sample = sample[:s.size]
	}
	if len(sample) == 0 {
		return 1
	}
	// Count in chunks through one small buffer: this runs for every
	// filtered relation on every Optimize, so it should leave no garbage
	// proportional to the sample.
	hits := 0
	buf := make([]int32, 0, sampleChunk)
	for lo := 0; lo < len(sample); lo += sampleChunk {
		hits += len(f.Select(buf[:0], sample[lo:min(lo+sampleChunk, len(sample))]))
	}
	if hits == 0 {
		// Zero hits on the sample: fall back to "half a row".
		return 0.5 / float64(len(sample))
	}
	return float64(hits) / float64(len(sample))
}

// uniformBase is the DBMS B profile: no MCVs, pure uniformity. Equality
// predicates get 1/ndistinct regardless of skew, which misestimates hot
// values by orders of magnitude on Zipfian data.
type uniformBase struct{}

func (uniformBase) relSelectivity(rel query.Rel, t *storage.Table, ts *stats.TableStats) float64 {
	sel := 1.0
	for _, p := range rel.Preds {
		sel *= uniformPredSel(p, t, ts)
	}
	return sel
}

func uniformPredSel(p *query.Pred, t *storage.Table, ts *stats.TableStats) float64 {
	cs := ts.Cols[p.Col]
	if p.Kind == query.PredOr {
		sel := 0.0
		for _, d := range p.Disj {
			s := uniformPredSel(d, t, ts)
			sel = sel + s - sel*s
		}
		return clampSel(sel)
	}
	if cs == nil {
		return 0.1
	}
	uniform := 1 / math.Max(1, cs.NDistinct)
	switch p.Kind {
	case query.PredEqInt, query.PredEqStr:
		return uniform
	case query.PredNeInt, query.PredNeStr:
		return clampSel(1 - uniform)
	case query.PredInInt:
		return clampSel(float64(len(p.Vals)) * uniform)
	case query.PredInStr:
		return clampSel(float64(len(p.Strs)) * uniform)
	case query.PredLtInt, query.PredLeInt:
		return uniformRange(cs, cs.Lo, p.Val)
	case query.PredGtInt, query.PredGeInt:
		return uniformRange(cs, p.Val, cs.Hi)
	case query.PredBetween:
		return uniformRange(cs, p.Val, p.Val2)
	case query.PredLike:
		return 0.002
	case query.PredNotLike:
		return 0.998
	case query.PredIsNull:
		return clampSel(cs.NullFrac)
	case query.PredNotNull:
		return clampSel(1 - cs.NullFrac)
	default:
		return 0.1
	}
}

func uniformRange(cs *stats.ColumnStats, lo, hi int64) float64 {
	if cs.Hi <= cs.Lo {
		return 0.5
	}
	if hi > cs.Hi {
		hi = cs.Hi
	}
	if lo < cs.Lo {
		lo = cs.Lo
	}
	if hi < lo {
		return 0
	}
	return clampSel(float64(hi-lo+1) / float64(cs.Hi-cs.Lo+1))
}

// magicBase is the DBMS C profile: decent numeric estimation (histograms)
// but fixed magic constants for every string predicate, producing the large
// overestimates of Table 1.
type magicBase struct{}

func (m magicBase) relSelectivity(rel query.Rel, t *storage.Table, ts *stats.TableStats) float64 {
	sel := 1.0
	for _, p := range rel.Preds {
		sel *= m.predSel(p, t, ts)
	}
	return sel
}

func (m magicBase) predSel(p *query.Pred, t *storage.Table, ts *stats.TableStats) float64 {
	h := histogramBase{likeSel: 0.15}
	switch p.Kind {
	case query.PredEqStr, query.PredNeStr:
		return 0.01
	case query.PredInStr:
		return clampSel(0.01 * float64(len(p.Strs)))
	case query.PredLike:
		return 0.15
	case query.PredNotLike:
		return 0.85
	case query.PredOr:
		sel := 0.0
		for _, d := range p.Disj {
			s := m.predSel(d, t, ts)
			sel = sel + s - sel*s
		}
		return clampSel(sel)
	default:
		// Numeric predicates use the histogram machinery.
		return h.predSelectivity(p, t, ts)
	}
}
