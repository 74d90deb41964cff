package query_test

import (
	"slices"
	"testing"

	"jobench/internal/query"
	"jobench/internal/workload"
)

// TestFilterMatchesOracleOnWorkloads: for every relation of every query of
// every registered world at test scale, the compiled filter selects exactly
// the oracle's rows. This is what the engine's scans, index-join fetch
// filters, truecard's level-1 scans and the HyPer sample all run.
func TestFilterMatchesOracleOnWorkloads(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	for _, name := range []string{"imdb", "tpch", "imdb-skew"} {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		db := w.Generate(workload.Config{Scale: scale, Seed: 42})
		checked := 0
		for _, q := range w.Queries() {
			for _, r := range q.Rels {
				if len(r.Preds) == 0 {
					continue
				}
				tbl := db.MustTable(r.Table)
				f, err := query.NewFilter(r.Preds, tbl)
				if err != nil {
					t.Fatalf("%s %s.%s: %v", name, q.ID, r.Alias, err)
				}
				got := f.SelectRange(nil, 0, tbl.NumRows())
				if want := query.OracleSelect(r.Preds, tbl); !slices.Equal(got, want) {
					t.Errorf("%s %s.%s: filter selects %d rows, oracle %d", name, q.ID, r.Alias, len(got), len(want))
				}
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("%s: no filtered relation checked", name)
		}
	}
}
