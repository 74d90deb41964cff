package cardest

import (
	"math"
	"testing"
	"testing/quick"

	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/metrics"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
)

type lab struct {
	db  *storage.Database
	sdb *stats.DB
}

func newLab(t *testing.T) *lab {
	t.Helper()
	db := imdb.Generate(imdb.Config{Scale: 0.1, Seed: 42})
	sdb := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 5000, MCVTarget: 50, HistBuckets: 50, Seed: 1})
	return &lab{db: db, sdb: sdb}
}

func trueSelCount(t *testing.T, db *storage.Database, rel query.Rel) int {
	t.Helper()
	tbl := db.MustTable(rel.Table)
	f, err := query.NewFilter(rel.Preds, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return len(f.SelectRange(nil, 0, tbl.NumRows()))
}

func TestBaseEstimatesReasonable(t *testing.T) {
	l := newLab(t)
	// Median base-table q-error should be small for every estimator
	// (Table 1: medians 1.00-1.06), even though tails can be large.
	for _, est := range Systems(l.db, l.sdb) {
		var qerrs []float64
		for _, q := range job.Workload()[:40] {
			g := query.MustBuildGraph(q)
			prov := est.ForQuery(g)
			for i, rel := range q.Rels {
				if len(rel.Preds) == 0 {
					continue
				}
				truth := float64(trueSelCount(t, l.db, rel))
				got := prov.Card(query.Bit(i))
				qerrs = append(qerrs, metrics.QError(got, truth))
			}
		}
		med := metrics.Median(qerrs)
		if med > 4 {
			t.Errorf("%s: median base q-error %.2f, want small", est.Name(), med)
		}
	}
}

func TestSampleBeatsHistogramOnCorrelatedPredicates(t *testing.T) {
	l := newLab(t)
	// Two correlated predicates on company_name: histogram independence
	// multiplies them, the sample sees the joint distribution.
	rel := query.Rel{Alias: "cn", Table: "company_name", Preds: []*query.Pred{
		query.EqStr("country_code", "[de]"),
		query.Like("name", "Constantin%"),
	}}
	truth := float64(trueSelCount(t, l.db, rel))
	if truth < 1 {
		t.Skip("no Constantin companies at this scale")
	}
	q := &query.Query{ID: "x", Rels: []query.Rel{rel}}
	g := query.MustBuildGraph(q)
	pg := NewPostgres(l.db, l.sdb).ForQuery(g).Card(query.Bit(0))
	hy := NewSample(l.db, l.sdb).ForQuery(g).Card(query.Bit(0))
	if metrics.QError(hy, truth) > metrics.QError(pg, truth)*2 {
		t.Errorf("sample q-error %.1f much worse than histogram %.1f",
			metrics.QError(hy, truth), metrics.QError(pg, truth))
	}
}

func TestDBMSCOverestimatesStringPredicates(t *testing.T) {
	l := newLab(t)
	// A very selective string equality on a large table: DBMS C charges
	// its 1% magic constant and overestimates massively (Table 1, row C).
	rel := query.Rel{Alias: "mi", Table: "movie_info", Preds: []*query.Pred{
		query.EqStr("info", "$1,000,000"),
	}}
	q := &query.Query{ID: "x", Rels: []query.Rel{rel}}
	g := query.MustBuildGraph(q)
	truth := float64(trueSelCount(t, l.db, rel))
	c := NewDBMSC(l.db, l.sdb).ForQuery(g).Card(query.Bit(0))
	if c < 5*math.Max(truth, 1) {
		t.Errorf("DBMS C estimate %.1f not an overestimate of %.0f", c, truth)
	}
}

func TestJoinUnderestimationGrowsWithJoins(t *testing.T) {
	// The paper's core finding (Fig. 3): under independence, the median
	// signed error drifts downwards as joins are added.
	l := newLab(t)
	pg := NewPostgres(l.db, l.sdb)
	medians := make(map[int][]float64)
	for _, qid := range []string{"13a", "13d", "22a", "25c", "12c", "28a"} {
		q := job.ByID(qid)
		g := query.MustBuildGraph(q)
		st, err := truecard.Compute(l.db, g, truecard.Options{MaxSize: 5})
		if err != nil {
			t.Fatal(err)
		}
		prov := pg.ForQuery(g)
		g.ConnectedSubsets(func(s query.BitSet) {
			if s.Count() > 5 {
				return
			}
			truth, ok := st.Card(s)
			if !ok || truth == 0 {
				return
			}
			nj := g.EdgesWithin(s).Count()
			medians[nj] = append(medians[nj], metrics.SignedError(prov.Card(s), truth))
		})
	}
	m0 := metrics.Median(medians[0])
	deep := append(append([]float64{}, medians[3]...), medians[4]...)
	m3 := metrics.Median(deep)
	if len(deep) == 0 {
		t.Fatal("no deep subexpressions measured")
	}
	if m3 >= m0 {
		t.Errorf("median signed error at 3-4 joins (%.3g) not below base (%.3g): no underestimation drift", m3, m0)
	}
}

func TestDampingLiftsDeepEstimates(t *testing.T) {
	l := newLab(t)
	q := job.ByID("25c")
	g := query.MustBuildGraph(q)
	pg := NewPostgres(l.db, l.sdb).ForQuery(g)
	a := NewDBMSA(l.db, l.sdb).ForQuery(g)
	b := NewDBMSB(l.db, l.sdb).ForQuery(g)
	// DBMS A's damping must lift deep-join estimates relative to plain
	// independence; DBMS B's shrink must lower them. Compare medians over
	// mid-size subexpressions (at the full query both often clamp to the
	// one-row floor, hiding the difference).
	var aVals, pgVals, bVals []float64
	g.ConnectedSubsets(func(s query.BitSet) {
		if nj := g.EdgesWithin(s).Count(); nj < 3 || nj > 6 {
			return
		}
		aVals = append(aVals, a.Card(s))
		pgVals = append(pgVals, pg.Card(s))
		bVals = append(bVals, b.Card(s))
	})
	if len(aVals) == 0 {
		t.Fatal("no mid-size subexpressions")
	}
	aM, pgM, bM := metrics.Median(aVals), metrics.Median(pgVals), metrics.Median(bVals)
	if aM <= pgM {
		t.Errorf("DBMS A deep median (%.3g) not above PostgreSQL (%.3g): damping invisible", aM, pgM)
	}
	if bM > pgM {
		t.Errorf("DBMS B deep median (%.3g) above PostgreSQL (%.3g): shrink not applied", bM, pgM)
	}
}

func TestClampToOneRow(t *testing.T) {
	l := newLab(t)
	for _, est := range Systems(l.db, l.sdb) {
		for _, qid := range []string{"29a", "28a", "13d"} {
			g := query.MustBuildGraph(job.ByID(qid))
			prov := est.ForQuery(g)
			g.ConnectedSubsets(func(s query.BitSet) {
				if v := prov.Card(s); v < 1 {
					t.Fatalf("%s: Card(%v) = %g < 1", est.Name(), s, v)
				}
			})
		}
	}
}

// Property: SansSelection >= Card for any subexpression (dropping a filter
// can only increase the estimate) and both are finite and positive.
func TestSansSelectionProperty(t *testing.T) {
	l := newLab(t)
	ests := Systems(l.db, l.sdb)
	qs := job.Workload()
	f := func(qi, ei uint8) bool {
		q := qs[int(qi)%len(qs)]
		est := ests[int(ei)%len(ests)]
		g := query.MustBuildGraph(q)
		prov := est.ForQuery(g)
		ok := true
		g.ConnectedSubsets(func(s query.BitSet) {
			if s.Count() > 4 {
				return
			}
			card := prov.Card(s)
			s.ForEach(func(r int) {
				sans := prov.SansSelection(s, r)
				if sans < card-1e-9 || math.IsNaN(sans) || math.IsInf(sans, 0) {
					ok = false
				}
			})
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTrueProvider(t *testing.T) {
	l := newLab(t)
	q := job.ByID("3b")
	g := query.MustBuildGraph(q)
	st, err := truecard.Compute(l.db, g, truecard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := True{Store: st}
	full := query.FullSet(g.N)
	want, _ := st.Card(full)
	if tp.Card(full) != want {
		t.Fatal("True provider disagrees with store")
	}
	if tp.Name() == "" {
		t.Fatal("empty name")
	}

	// Missing true cardinalities must panic loudly, not silently misestimate.
	limited, err := truecard.Compute(l.db, g, truecard.Options{MaxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for missing true cardinality")
		}
	}()
	True{Store: limited}.Card(full)
}

func TestTrueDistinctVariantChangesEstimates(t *testing.T) {
	// Fig. 5: swapping estimated for true distinct counts changes join
	// estimates (and, in the paper, makes underestimation worse).
	db := imdb.Generate(imdb.Config{Scale: 0.1, Seed: 42})
	est := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 2000, Seed: 1})
	exact := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 2000, Seed: 1, TrueDistinct: true})
	q := job.ByID("13d")
	g := query.MustBuildGraph(q)
	a := NewPostgres(db, est).ForQuery(g)
	b := NewPostgres(db, exact).ForQuery(g)
	diff := false
	g.ConnectedSubsets(func(s query.BitSet) {
		if a.Card(s) != b.Card(s) {
			diff = true
		}
	})
	if !diff {
		t.Fatal("true distinct counts changed nothing")
	}
}

func TestEstimatorNames(t *testing.T) {
	l := newLab(t)
	want := []string{"PostgreSQL", "DBMS A", "DBMS B", "DBMS C", "HyPer"} // the paper's order
	ests := Systems(l.db, l.sdb)
	if len(ests) != len(want) {
		t.Fatalf("Systems built %d estimators, want %d", len(ests), len(want))
	}
	for i, est := range ests {
		if est.Name() != want[i] {
			t.Errorf("Systems()[%d] is %q, want %q", i, est.Name(), want[i])
		}
		g := query.MustBuildGraph(job.ByID("1a"))
		if est.ForQuery(g).Name() != est.Name() {
			t.Errorf("%s: provider name differs", est.Name())
		}
	}
}
