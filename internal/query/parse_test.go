package query

import (
	"reflect"
	"slices"
	"testing"

	"jobench/internal/storage"
)

func TestParseSimpleQuery(t *testing.T) {
	q, err := ParseSQL("t1", `
		SELECT COUNT(*)
		FROM title t, movie_info mi
		WHERE t.production_year > 2000
		  AND mi.info = 'Horror'
		  AND mi.movie_id = t.id;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 2 || q.Rels[0].Alias != "t" || q.Rels[1].Table != "movie_info" {
		t.Fatalf("rels = %+v", q.Rels)
	}
	if len(q.Joins) != 1 || q.Joins[0].LeftAlias != "mi" || q.Joins[0].RightCol != "id" {
		t.Fatalf("joins = %+v", q.Joins)
	}
	if len(q.Rels[0].Preds) != 1 || q.Rels[0].Preds[0].Kind != PredGtInt {
		t.Fatalf("t preds = %+v", q.Rels[0].Preds)
	}
	if len(q.Rels[1].Preds) != 1 || q.Rels[1].Preds[0].Str != "Horror" {
		t.Fatalf("mi preds = %+v", q.Rels[1].Preds)
	}
}

func TestParsePredicateForms(t *testing.T) {
	q, err := ParseSQL("forms", `
		SELECT *
		FROM t a
		WHERE a.x BETWEEN 3 AND 7
		  AND a.y IN (1, 2, 3)
		  AND a.z IN ('u', 'v')
		  AND a.s LIKE '%foo%'
		  AND a.s NOT LIKE 'bar%'
		  AND a.n IS NULL
		  AND a.m IS NOT NULL
		  AND a.p != 5
		  AND a.q <> 'str'
		  AND a.r <= 9
		  AND (a.g = 'f' OR a.g = 'm' OR a.g IS NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	preds := q.Rels[0].Preds
	if len(preds) != 11 {
		t.Fatalf("%d predicates, want 11", len(preds))
	}
	kinds := []PredKind{
		PredBetween, PredInInt, PredInStr, PredLike, PredNotLike,
		PredIsNull, PredNotNull, PredNeInt, PredNeStr, PredLeInt, PredOr,
	}
	for i, k := range kinds {
		if preds[i].Kind != k {
			t.Errorf("pred %d kind = %d, want %d (%s)", i, preds[i].Kind, k, preds[i])
		}
	}
	or := preds[10]
	if len(or.Disj) != 3 || or.Disj[2].Kind != PredIsNull {
		t.Fatalf("OR = %+v", or)
	}
	if got := preds[0]; got.Val != 3 || got.Val2 != 7 {
		t.Fatalf("BETWEEN bounds = %d/%d", got.Val, got.Val2)
	}
}

func TestParseNoWhere(t *testing.T) {
	q, err := ParseSQL("nw", "SELECT * FROM t a, u b")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 2 || len(q.Joins) != 0 {
		t.Fatalf("%+v", q)
	}
}

func TestParseDefaultAlias(t *testing.T) {
	q, err := ParseSQL("da", "SELECT * FROM title WHERE title.production_year > 1990")
	if err != nil {
		t.Fatal(err)
	}
	if q.Rels[0].Alias != "title" {
		t.Fatalf("alias = %q", q.Rels[0].Alias)
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := ParseSQL("esc", `SELECT * FROM t a WHERE a.s = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Rels[0].Preds[0].Str; got != "it's" {
		t.Fatalf("unescaped = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"FROM t a",                                     // no SELECT
		"SELECT * WHERE a.x = 1",                       // no FROM
		"SELECT * FROM t a WHERE a.x ~ 3",              // bad operator
		"SELECT * FROM t a WHERE a.x BETWEEN 1 OR 2",   // bad BETWEEN
		"SELECT * FROM t a WHERE a.x IN (1, 'two')",    // mixed IN
		"SELECT * FROM t a WHERE b.x = 1",              // unknown alias
		"SELECT * FROM t a WHERE (a.x = 1 OR b.y = 2)", // OR across aliases
		"SELECT * FROM t a WHERE a.x NOT NULL",         // NOT without LIKE
		"SELECT * FROM t a WHERE a.x = 1 garbage",      // trailing tokens
		"SELECT * FROM t a WHERE a.x > 'str'",          // range op on string
		"SELECT * FROM t a WHERE a.x IS 3",             // IS non-null
	}
	for _, sql := range cases {
		if _, err := ParseSQL("bad", sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
}

// TestWorkloadRoundTrip is the headline property: rendering any JOB query to
// SQL and parsing it back reproduces the query structurally. The workload
// lives in a higher-level package, so the check here uses a painstaking
// structural comparison on a hand-built query; the full 113-query round trip
// lives in the job package's tests.
func TestRoundTripStructural(t *testing.T) {
	orig := &Query{
		ID: "rt",
		Rels: []Rel{
			{Alias: "a", Table: "t1", Preds: []*Pred{
				Between("x", 1, 5),
				Or(EqStr("s", "p"), Like("s", "%q%")),
				InInt("y", 7, 8),
			}},
			{Alias: "b", Table: "t2", Preds: []*Pred{NotNull("z")}},
		},
		Joins: []Join{{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"}},
	}
	parsed, err := ParseSQL("rt", orig.SQL())
	if err != nil {
		t.Fatalf("parse failed: %v\nSQL:\n%s", err, orig.SQL())
	}
	if !reflect.DeepEqual(normalize(orig), normalize(parsed)) {
		t.Fatalf("round trip mismatch:\norig:   %#v\nparsed: %#v", normalize(orig), normalize(parsed))
	}
}

// normalize renders a query in a canonical comparable form.
func normalize(q *Query) []string {
	var out []string
	for _, r := range q.Rels {
		out = append(out, r.Table+" "+r.Alias)
		for _, p := range r.Preds {
			out = append(out, r.Alias+"|"+p.String())
		}
	}
	for _, j := range q.Joins {
		out = append(out, j.LeftAlias+"."+j.LeftCol+"="+j.RightAlias+"."+j.RightCol)
	}
	return out
}

func TestParsedQueryExecutesLikeOriginal(t *testing.T) {
	// Build a small table, filter through an original and a parsed
	// predicate set, and require identical row sets.
	id := storage.NewIntColumn("id")
	val := storage.NewStringColumn("kind")
	for i := int64(0); i < 50; i++ {
		id.AppendInt(i)
		if i%5 == 0 {
			val.AppendString("movie")
		} else {
			val.AppendString("episode")
		}
	}
	tbl := storage.NewTable("title", id, val)

	orig := &Query{ID: "x", Rels: []Rel{{Alias: "t", Table: "title", Preds: []*Pred{
		EqStr("kind", "movie"), LtInt("id", 30),
	}}}}
	parsed, err := ParseSQL("x", orig.SQL())
	if err != nil {
		t.Fatal(err)
	}
	f1, err := NewFilter(orig.Rels[0].Preds, tbl)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFilter(parsed.Rels[0].Preds, tbl)
	if err != nil {
		t.Fatal(err)
	}
	r1 := f1.SelectRange(nil, 0, tbl.NumRows())
	r2 := f2.SelectRange(nil, 0, tbl.NumRows())
	if !slices.Equal(r1, r2) {
		t.Fatalf("original selects %v, parsed selects %v", r1, r2)
	}
}
