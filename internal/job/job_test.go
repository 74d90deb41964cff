package job

import (
	"testing"

	"jobench/internal/imdb"
	"jobench/internal/query"
)

func TestWorkloadShape(t *testing.T) {
	qs := Workload()
	if len(qs) != 113 {
		t.Fatalf("workload has %d queries, want 113 (like JOB)", len(qs))
	}
	families := make(map[string]int)
	ids := make(map[string]bool)
	totalJoins, minJoins, maxJoins := 0, 1<<30, 0
	for _, q := range qs {
		if ids[q.ID] {
			t.Fatalf("duplicate query id %s", q.ID)
		}
		ids[q.ID] = true
		families[FamilyOf(q.ID)]++
		nj := q.NumJoins()
		totalJoins += nj
		if nj < minJoins {
			minJoins = nj
		}
		if nj > maxJoins {
			maxJoins = nj
		}
	}
	if len(families) != 33 {
		t.Fatalf("%d families, want 33", len(families))
	}
	for fam, n := range families {
		if n < 2 || n > 6 {
			t.Errorf("family %s has %d variants, want 2-6", fam, n)
		}
	}
	avg := float64(totalJoins) / float64(len(qs))
	if avg < 7 || avg > 11 {
		t.Errorf("average join count = %.1f, want ~8-10 (paper: 8)", avg)
	}
	if minJoins < 3 || minJoins > 5 {
		t.Errorf("min joins = %d, want small (paper: 3)", minJoins)
	}
	if maxJoins < 14 || maxJoins > 17 {
		t.Errorf("max joins = %d, want ~16 (paper: 16)", maxJoins)
	}
}

func TestWorkloadValidatesAgainstSchema(t *testing.T) {
	db := imdb.Generate(imdb.Config{Scale: 0.05, Seed: 1})
	for _, q := range Workload() {
		if err := q.Validate(db); err != nil {
			t.Errorf("query %s invalid: %v", q.ID, err)
		}
	}
}

func TestVariantsShareStructure(t *testing.T) {
	// All variants of a family must have the same relations and joins;
	// only selections may differ (paper §2.2).
	byFam := make(map[string][]*query.Query)
	for _, q := range Workload() {
		fam := FamilyOf(q.ID)
		byFam[fam] = append(byFam[fam], q)
	}
	for fam, qs := range byFam {
		first := qs[0]
		for _, q := range qs[1:] {
			if len(q.Rels) != len(first.Rels) {
				t.Errorf("family %s: variant %s has %d rels, %s has %d",
					fam, q.ID, len(q.Rels), first.ID, len(first.Rels))
				continue
			}
			for i := range q.Rels {
				if q.Rels[i].Alias != first.Rels[i].Alias || q.Rels[i].Table != first.Rels[i].Table {
					t.Errorf("family %s: relation %d differs between %s and %s", fam, i, first.ID, q.ID)
				}
			}
			if len(q.Joins) != len(first.Joins) {
				t.Errorf("family %s: %s has %d joins, %s has %d", fam, q.ID, len(q.Joins), first.ID, len(first.Joins))
			}
		}
	}
}

func TestByID(t *testing.T) {
	q := ByID("13d")
	if q == nil {
		t.Fatal("13d not found")
	}
	// 13d is the paper's running example: 9 relations, 11 join predicates.
	if len(q.Rels) != 9 {
		t.Fatalf("13d has %d relations, want 9", len(q.Rels))
	}
	if q.NumJoins() != 11 {
		t.Fatalf("13d has %d join predicates, want 11", q.NumJoins())
	}
	if ByID("nonexistent") != nil {
		t.Fatal("found nonexistent query")
	}
}

func TestSearchSpaceSizes(t *testing.T) {
	// Every query's join graph must be enumerable: connected subset counts
	// stay in a range that DP and true-cardinality computation can handle.
	for _, q := range Workload() {
		g := query.MustBuildGraph(q)
		n := g.CountConnectedSubsets()
		if n < len(q.Rels) {
			t.Errorf("%s: %d connected subsets < %d relations", q.ID, n, len(q.Rels))
		}
		if n > 60000 {
			t.Errorf("%s: %d connected subsets, too many for the DP", q.ID, n)
		}
	}
}

func TestQueriesReturnResultsAtScale(t *testing.T) {
	// Queries should not be trivially empty on the synthetic data: base
	// predicates must match rows. (Join results may still be empty for a
	// few highly selective variants, which is realistic; base selections
	// that match nothing would indicate a vocabulary mismatch.)
	db := imdb.Generate(imdb.Config{Scale: 0.2, Seed: 42})
	empties := 0
	checked := 0
	for _, q := range Workload() {
		for _, r := range q.Rels {
			if len(r.Preds) == 0 {
				continue
			}
			tbl := db.MustTable(r.Table)
			f, err := query.NewFilter(r.Preds, tbl)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			n := len(f.SelectRange(nil, 0, tbl.NumRows()))
			checked++
			if n == 0 {
				empties++
				t.Logf("%s: selection on %s (%s) matches 0 rows", q.ID, r.Alias, r.Table)
			}
		}
	}
	if checked < 250 {
		t.Errorf("only %d base selections in workload, want at least 250", checked)
	}
	if float64(empties) > 0.1*float64(checked) {
		t.Errorf("%d/%d base selections empty; vocabulary mismatch with generator", empties, checked)
	}
}

func TestWorkloadSQLRoundTrip(t *testing.T) {
	// Every JOB query must survive rendering to SQL and parsing back: the
	// workload is fully expressible in the text dialect users write.
	for _, q := range Workload() {
		parsed, err := query.ParseSQL(q.ID, q.SQL())
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", q.ID, err, q.SQL())
		}
		if len(parsed.Rels) != len(q.Rels) || len(parsed.Joins) != len(q.Joins) {
			t.Fatalf("%s: shape mismatch after round trip", q.ID)
		}
		for i := range q.Rels {
			if parsed.Rels[i].Alias != q.Rels[i].Alias || parsed.Rels[i].Table != q.Rels[i].Table {
				t.Fatalf("%s: relation %d mismatch", q.ID, i)
			}
			if len(parsed.Rels[i].Preds) != len(q.Rels[i].Preds) {
				t.Fatalf("%s: rel %s has %d preds after parse, want %d",
					q.ID, q.Rels[i].Alias, len(parsed.Rels[i].Preds), len(q.Rels[i].Preds))
			}
			for k := range q.Rels[i].Preds {
				if parsed.Rels[i].Preds[k].String() != q.Rels[i].Preds[k].String() {
					t.Fatalf("%s: pred mismatch: %s vs %s",
						q.ID, parsed.Rels[i].Preds[k], q.Rels[i].Preds[k])
				}
			}
		}
		for i := range q.Joins {
			if parsed.Joins[i] != q.Joins[i] {
				t.Fatalf("%s: join %d mismatch", q.ID, i)
			}
		}
	}
}
