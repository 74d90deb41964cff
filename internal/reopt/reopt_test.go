package reopt

import (
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/enum"
	"jobench/internal/imdb"
	"jobench/internal/index"
	"jobench/internal/job"
	"jobench/internal/optimizer"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/workload"
)

// TestGatePricesSamePlanAlike: Run's replan gate weighs plan.Cost of the
// current plan against the candidate's ECost, both under the propagated
// observations. When re-optimizing returns the current plan's structure,
// the two prices must agree bit for bit, or a replan to the same plan is
// accepted (or refused) on a rounding difference. Every join subtree of at
// most DefaultMaxProbeRels relations of each JOB query's DP plan (imdb 0.05,
// PK indexes, PostgreSQL estimates, tuned model) is observed at twice its
// estimate and the query re-optimized. -short checks every 10th query.
func TestGatePricesSamePlanAlike(t *testing.T) {
	db := imdb.Generate(imdb.Config{Scale: 0.05, Seed: 11})
	sdb := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 2000, Seed: 1})
	wl, _ := workload.Get("imdb")
	idx, err := wl.BuildIndexes(db, index.PKOnly)
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.NewTuned()
	est := cardest.NewPostgres(db, sdb)
	replans, same := 0, 0
	for qi, q := range job.Workload() {
		if testing.Short() && qi%10 != 0 {
			continue
		}
		g := query.MustBuildGraph(q)
		prov := est.ForQuery(g)
		sp := &enum.Space{G: g, DB: db, Cards: prov, Model: model, Indexes: idx, DisableNLJ: true}
		cur, err := optimizer.Optimize(sp, optimizer.DP, 0)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		curSig := signature(cur)
		var probes []*plan.Node
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			if n.IsLeaf() {
				return
			}
			walk(n.Left)
			walk(n.Right)
			if n != cur && n.S.Count() <= DefaultMaxProbeRels {
				probes = append(probes, n)
			}
		}
		walk(cur)
		for _, n := range probes {
			inj := NewPropagator(prov, map[query.BitSet]float64{n.S: 2 * n.ECard})
			replan := *sp
			replan.Cards = inj
			cand, err := optimizer.Optimize(&replan, optimizer.DP, 0)
			if err != nil {
				t.Fatalf("%s: replan after %v: %v", q.ID, n.S, err)
			}
			replans++
			if signature(cand) != curSig {
				continue
			}
			same++
			if c := plan.Cost(cur, g, db, inj, model); c != cand.ECost {
				t.Errorf("%s: observing %v re-plans to the same plan, priced %v by plan.Cost and %v by the enumerator",
					q.ID, n.S, c, cand.ECost)
			}
		}
	}
	if same == 0 {
		t.Fatalf("none of %d re-optimizations returned the current plan: nothing was compared", replans)
	}
	t.Logf("%d re-optimizations, %d returned the current plan", replans, same)
}
