package query

import (
	"regexp"
	"slices"
	"strings"

	"jobench/internal/storage"
)

// This file is the predicate oracle: a row-at-a-time evaluator written from
// SQL's rules, sharing nothing with the compiled kernels — it reads each
// row back as the integer or string it represents (never as a dictionary
// code), matches LIKE with a regular expression, and treats NULL by
// three-valued logic. Filter is tested against it, so the identity
// "engine rows == truecard" no longer rests on one predicate implementation
// that both sides share. It is exported for the external workload test.

// OracleSelect returns the rows of t that satisfy every predicate of preds,
// ascending.
func OracleSelect(preds []*Pred, t *storage.Table) []int32 {
	o := newOracle()
	var out []int32
	for row := 0; row < t.NumRows(); row++ {
		if o.matchAll(preds, t, row) {
			out = append(out, int32(row))
		}
	}
	return out
}

// oracle memoizes the LIKE regular expressions it compiles.
type oracle struct {
	likes map[string]*regexp.Regexp
}

func newOracle() *oracle { return &oracle{likes: make(map[string]*regexp.Regexp)} }

func (o *oracle) matchAll(preds []*Pred, t *storage.Table, row int) bool {
	for _, p := range preds {
		if !o.match(p, t, row) {
			return false
		}
	}
	return true
}

// match evaluates p on one row. A comparison with NULL is unknown, which a
// WHERE clause treats as false; only IS NULL holds on a NULL. A disjunction
// holds when any disjunct does.
func (o *oracle) match(p *Pred, t *storage.Table, row int) bool {
	if p.Kind == PredOr {
		for _, d := range p.Disj {
			if o.match(d, t, row) {
				return true
			}
		}
		return false
	}
	col := t.MustColumn(p.Col)
	if col.IsNull(row) {
		return p.Kind == PredIsNull
	}
	switch p.Kind {
	case PredIsNull:
		return false
	case PredNotNull:
		return true
	case PredEqStr, PredNeStr, PredInStr, PredLike, PredNotLike:
		s := col.StringAt(row)
		switch p.Kind {
		case PredEqStr:
			return s == p.Str
		case PredNeStr:
			return s != p.Str
		case PredInStr:
			return slices.Contains(p.Strs, s)
		case PredLike:
			return o.like(p.Str).MatchString(s)
		default:
			return !o.like(p.Str).MatchString(s)
		}
	}
	v := col.Ints[row]
	switch p.Kind {
	case PredEqInt:
		return v == p.Val
	case PredNeInt:
		return v != p.Val
	case PredLtInt:
		return v < p.Val
	case PredLeInt:
		return v <= p.Val
	case PredGtInt:
		return v > p.Val
	case PredGeInt:
		return v >= p.Val
	case PredBetween:
		return p.Val <= v && v <= p.Val2
	case PredInInt:
		return slices.Contains(p.Vals, v)
	}
	panic("oracle: unknown predicate kind")
}

func (o *oracle) like(pattern string) *regexp.Regexp {
	re, ok := o.likes[pattern]
	if !ok {
		re = likeRegexp(pattern)
		o.likes[pattern] = re
	}
	return re
}

// likeRegexp is the reference semantics of a '%'-only LIKE pattern: the
// literal segments between wildcards, in order, with anything (newlines
// included) between them, anchored at both ends.
func likeRegexp(pattern string) *regexp.Regexp {
	segs := strings.Split(pattern, "%")
	for i, s := range segs {
		segs[i] = regexp.QuoteMeta(s)
	}
	return regexp.MustCompile(`(?s)\A` + strings.Join(segs, ".*") + `\z`)
}
