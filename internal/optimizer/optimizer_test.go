package optimizer

import (
	"strings"
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
)

type olab struct {
	db   *storage.Database
	sdb  *stats.DB
	pg   cardest.Estimator
	pkfk plan.IndexChecker
}

var cached *olab

func lab(t *testing.T) *olab {
	t.Helper()
	if cached != nil {
		return cached
	}
	db := imdb.Generate(imdb.Config{Scale: 0.05, Seed: 31})
	sdb := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 2000, Seed: 1})
	pkfk, err := imdb.BuildIndexes(db, imdb.PKFK)
	if err != nil {
		t.Fatal(err)
	}
	cached = &olab{db: db, sdb: sdb, pg: cardest.NewPostgres(db, sdb), pkfk: pkfk}
	return cached
}

func TestOptimizeAllAlgorithms(t *testing.T) {
	l := lab(t)
	g := query.MustBuildGraph(job.ByID("13d"))
	cards := l.pg.ForQuery(g)
	var dpCost float64
	for _, alg := range []Algorithm{DP, QuickPick1000, GOO} {
		o := &Optimizer{
			DB: l.db, Model: costmodel.NewSimple(), Indexes: l.pkfk,
			DisableNLJ: true, Algorithm: alg, Seed: 1,
		}
		root, err := o.Optimize(g, cards)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := plan.Validate(root, g, query.FullSet(g.N)); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		switch alg {
		case DP:
			dpCost = root.ECost
		default:
			if root.ECost < dpCost-1e-9 {
				t.Errorf("%v produced cheaper plan (%g) than DP (%g)", alg, root.ECost, dpCost)
			}
		}
		if alg.String() == "" || strings.HasPrefix(alg.String(), "Algorithm(") {
			t.Errorf("bad algorithm name for %d", alg)
		}
	}
}

func TestTrueCostRecosting(t *testing.T) {
	// The §6 methodology: optimize under estimates, re-cost under truth.
	// The estimate-driven plan can never have a lower true cost than the
	// plan optimized under true cardinalities.
	l := lab(t)
	for _, qid := range []string{"3b", "1a", "13a"} {
		g := query.MustBuildGraph(job.ByID(qid))
		st, err := truecard.Compute(l.db, g, truecard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		truth := cardest.True{Store: st}
		o := &Optimizer{DB: l.db, Model: costmodel.NewSimple(), Indexes: l.pkfk, DisableNLJ: true}

		estPlan, err := o.Optimize(g, l.pg.ForQuery(g))
		if err != nil {
			t.Fatal(err)
		}
		truePlan, err := o.Optimize(g, truth)
		if err != nil {
			t.Fatal(err)
		}
		estCost := plan.Cost(estPlan, g, l.db, truth, o.Model)
		optCost := plan.Cost(truePlan, g, l.db, truth, o.Model)
		if optCost != truePlan.ECost {
			t.Errorf("%s: re-costing the true-card plan under truth gives %v, the optimizer priced it %v", qid, optCost, truePlan.ECost)
		}
		if optCost > estCost+1e-9 {
			t.Errorf("%s: true-card plan (%g) worse than estimate plan (%g)", qid, optCost, estCost)
		}
		if optCost <= 0 {
			t.Errorf("%s: non-positive cost %g", qid, optCost)
		}
	}
}

func TestShapeRestrictionRespected(t *testing.T) {
	l := lab(t)
	g := query.MustBuildGraph(job.ByID("13d"))
	for _, shape := range []plan.Shape{plan.LeftDeep, plan.RightDeep, plan.ZigZag} {
		o := &Optimizer{DB: l.db, Model: costmodel.NewSimple(), Indexes: l.pkfk,
			DisableNLJ: true, Shape: shape}
		root, err := o.Optimize(g, l.pg.ForQuery(g))
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if !plan.Conforms(root, shape) {
			t.Errorf("plan violates %v", shape)
		}
	}
}

func TestMissingModelError(t *testing.T) {
	o := &Optimizer{DB: lab(t).db}
	g := query.MustBuildGraph(job.ByID("1a"))
	if _, err := o.Optimize(g, lab(t).pg.ForQuery(g)); err == nil {
		t.Fatal("no error without a cost model")
	}
}
