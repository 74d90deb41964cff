package query

import (
	"fmt"
	"strings"
)

// PredKind enumerates the base-table predicate forms JOB uses: surrogate-key
// and categorical equality, ranges on numeric attributes, IN lists,
// substring search with LIKE, disjunctions, and NULL tests.
type PredKind uint8

const (
	// PredEqInt is col = <int>.
	PredEqInt PredKind = iota
	// PredNeInt is col <> <int>.
	PredNeInt
	// PredLtInt is col < <int>.
	PredLtInt
	// PredLeInt is col <= <int>.
	PredLeInt
	// PredGtInt is col > <int>.
	PredGtInt
	// PredGeInt is col >= <int>.
	PredGeInt
	// PredBetween is <lo> <= col <= <hi>.
	PredBetween
	// PredInInt is col IN (<ints>).
	PredInInt
	// PredEqStr is col = '<str>'.
	PredEqStr
	// PredNeStr is col <> '<str>'.
	PredNeStr
	// PredInStr is col IN ('<strs>').
	PredInStr
	// PredLike is col LIKE '<pattern>' with % wildcards.
	PredLike
	// PredNotLike is col NOT LIKE '<pattern>'.
	PredNotLike
	// PredIsNull is col IS NULL.
	PredIsNull
	// PredNotNull is col IS NOT NULL.
	PredNotNull
	// PredOr is a disjunction of sub-predicates on the same relation.
	PredOr
)

// Pred is one base-table predicate applied to a single relation.
type Pred struct {
	Kind PredKind
	Col  string

	Val  int64   // EqInt/NeInt/Lt/Le/Gt/Ge and Between low bound
	Val2 int64   // Between high bound
	Vals []int64 // InInt

	Str  string   // EqStr/NeStr and Like pattern
	Strs []string // InStr

	Disj []*Pred // Or
}

// Convenience constructors keep workload definitions terse and readable.

// EqInt returns col = v.
func EqInt(col string, v int64) *Pred { return &Pred{Kind: PredEqInt, Col: col, Val: v} }

// NeInt returns col <> v.
func NeInt(col string, v int64) *Pred { return &Pred{Kind: PredNeInt, Col: col, Val: v} }

// LtInt returns col < v.
func LtInt(col string, v int64) *Pred { return &Pred{Kind: PredLtInt, Col: col, Val: v} }

// LeInt returns col <= v.
func LeInt(col string, v int64) *Pred { return &Pred{Kind: PredLeInt, Col: col, Val: v} }

// GtInt returns col > v.
func GtInt(col string, v int64) *Pred { return &Pred{Kind: PredGtInt, Col: col, Val: v} }

// GeInt returns col >= v.
func GeInt(col string, v int64) *Pred { return &Pred{Kind: PredGeInt, Col: col, Val: v} }

// Between returns lo <= col <= hi.
func Between(col string, lo, hi int64) *Pred {
	return &Pred{Kind: PredBetween, Col: col, Val: lo, Val2: hi}
}

// InInt returns col IN (vs).
func InInt(col string, vs ...int64) *Pred { return &Pred{Kind: PredInInt, Col: col, Vals: vs} }

// EqStr returns col = s.
func EqStr(col, s string) *Pred { return &Pred{Kind: PredEqStr, Col: col, Str: s} }

// NeStr returns col <> s.
func NeStr(col, s string) *Pred { return &Pred{Kind: PredNeStr, Col: col, Str: s} }

// InStr returns col IN (ss).
func InStr(col string, ss ...string) *Pred { return &Pred{Kind: PredInStr, Col: col, Strs: ss} }

// Like returns col LIKE pattern ('%' wildcards only, as in JOB).
func Like(col, pattern string) *Pred { return &Pred{Kind: PredLike, Col: col, Str: pattern} }

// NotLike returns col NOT LIKE pattern.
func NotLike(col, pattern string) *Pred { return &Pred{Kind: PredNotLike, Col: col, Str: pattern} }

// IsNull returns col IS NULL.
func IsNull(col string) *Pred { return &Pred{Kind: PredIsNull, Col: col} }

// NotNull returns col IS NOT NULL.
func NotNull(col string) *Pred { return &Pred{Kind: PredNotNull, Col: col} }

// Or returns a disjunction. All sub-predicates must be on the same relation.
func Or(ps ...*Pred) *Pred { return &Pred{Kind: PredOr, Disj: ps} }

// String renders the predicate as SQL-ish text.
func (p *Pred) String() string {
	switch p.Kind {
	case PredEqInt:
		return fmt.Sprintf("%s = %d", p.Col, p.Val)
	case PredNeInt:
		return fmt.Sprintf("%s <> %d", p.Col, p.Val)
	case PredLtInt:
		return fmt.Sprintf("%s < %d", p.Col, p.Val)
	case PredLeInt:
		return fmt.Sprintf("%s <= %d", p.Col, p.Val)
	case PredGtInt:
		return fmt.Sprintf("%s > %d", p.Col, p.Val)
	case PredGeInt:
		return fmt.Sprintf("%s >= %d", p.Col, p.Val)
	case PredBetween:
		return fmt.Sprintf("%s BETWEEN %d AND %d", p.Col, p.Val, p.Val2)
	case PredInInt:
		parts := make([]string, len(p.Vals))
		for i, v := range p.Vals {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return fmt.Sprintf("%s IN (%s)", p.Col, strings.Join(parts, ", "))
	case PredEqStr:
		return fmt.Sprintf("%s = '%s'", p.Col, p.Str)
	case PredNeStr:
		return fmt.Sprintf("%s <> '%s'", p.Col, p.Str)
	case PredInStr:
		return fmt.Sprintf("%s IN ('%s')", p.Col, strings.Join(p.Strs, "','"))
	case PredLike:
		return fmt.Sprintf("%s LIKE '%s'", p.Col, p.Str)
	case PredNotLike:
		return fmt.Sprintf("%s NOT LIKE '%s'", p.Col, p.Str)
	case PredIsNull:
		return fmt.Sprintf("%s IS NULL", p.Col)
	case PredNotNull:
		return fmt.Sprintf("%s IS NOT NULL", p.Col)
	case PredOr:
		parts := make([]string, len(p.Disj))
		for i, d := range p.Disj {
			parts[i] = d.String()
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	default:
		return fmt.Sprintf("pred(%d)", p.Kind)
	}
}

// likePattern is a SQL LIKE pattern restricted to '%' wildcards (JOB uses
// no '_' wildcards), split at its wildcards once so that matching it
// against every string of a dictionary allocates nothing per string.
type likePattern struct {
	exact  bool     // no wildcard: s must equal prefix
	prefix string   // anchored at the start
	middle []string // non-empty segments that must appear in order
	suffix string   // anchored at the end
}

// compileLike splits pattern at its '%' wildcards.
func compileLike(pattern string) likePattern {
	parts := strings.Split(pattern, "%")
	if len(parts) == 1 {
		return likePattern{exact: true, prefix: pattern}
	}
	m := likePattern{prefix: parts[0], suffix: parts[len(parts)-1]}
	for _, seg := range parts[1 : len(parts)-1] {
		if seg != "" {
			m.middle = append(m.middle, seg)
		}
	}
	return m
}

// match reports whether s matches the pattern. The middle segments match
// leftmost-first, which is exact: an earlier match of a segment leaves a
// longer remainder for everything after it.
func (m *likePattern) match(s string) bool {
	if m.exact {
		return s == m.prefix
	}
	if !strings.HasPrefix(s, m.prefix) {
		return false
	}
	s = s[len(m.prefix):]
	for _, seg := range m.middle {
		i := strings.Index(s, seg)
		if i < 0 {
			return false
		}
		s = s[i+len(seg):]
	}
	return strings.HasSuffix(s, m.suffix)
}

// LikeMatch reports whether s matches a SQL LIKE pattern restricted to '%'
// wildcards. A Filter compiles each LIKE pattern once for its whole
// dictionary instead.
func LikeMatch(s, pattern string) bool {
	m := compileLike(pattern)
	return m.match(s)
}
