package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/enum"
	"jobench/internal/imdb"
	"jobench/internal/index"
	"jobench/internal/job"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

type elab struct {
	db   *storage.Database
	sdb  *stats.DB
	pg   cardest.Estimator
	pkfk *index.Set
}

var cached *elab

func lab(t *testing.T) *elab {
	t.Helper()
	if cached != nil {
		return cached
	}
	db := imdb.Generate(imdb.Config{Scale: 0.05, Seed: 21})
	sdb := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 2000, Seed: 1})
	wl, _ := workload.Get("imdb")
	pkfk, err := wl.BuildIndexes(db, index.PKFK)
	if err != nil {
		t.Fatal(err)
	}
	cached = &elab{db: db, sdb: sdb, pg: cardest.NewPostgres(db, sdb), pkfk: pkfk}
	return cached
}

func (l *elab) planFor(t *testing.T, qid string, shape plan.Shape) (*query.Graph, *plan.Node) {
	t.Helper()
	q := job.ByID(qid)
	g := query.MustBuildGraph(q)
	sp := &enum.Space{
		G: g, DB: l.db, Cards: l.pg.ForQuery(g),
		Model: costmodel.NewSimple(), Indexes: l.pkfk, DisableNLJ: true, Shape: shape,
	}
	root, err := enum.DP(sp)
	if err != nil {
		t.Fatalf("%s: %v", qid, err)
	}
	return g, root
}

// TestExecutionMatchesTrueCardinality is the central integration invariant:
// whatever plan the optimizer picks, executing it must produce exactly the
// true result cardinality.
func TestExecutionMatchesTrueCardinality(t *testing.T) {
	l := lab(t)
	for _, qid := range []string{"1a", "2d", "3b", "4a", "6a", "8c", "13d", "16b", "17e", "25a", "32a", "33a"} {
		g, root := l.planFor(t, qid, plan.Bushy)
		st, err := truecard.Compute(l.db, g, truecard.Options{})
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		want, _ := st.Card(query.FullSet(g.N))
		res, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		if res.Rows != int64(want) {
			t.Errorf("%s: executed %d rows, true cardinality %.0f", qid, res.Rows, want)
		}
		if res.Work <= 0 {
			t.Errorf("%s: work = %d", qid, res.Work)
		}
	}
}

// forceAlgo rewrites every join to one algorithm (skipping INL, which is
// only valid with an index on a leaf).
func forceAlgo(n *plan.Node, algo plan.JoinAlgo) {
	if n == nil || n.IsLeaf() {
		return
	}
	n.Algo = algo
	forceAlgo(n.Left, algo)
	forceAlgo(n.Right, algo)
}

// TestJoinAlgorithmsAgree: the same plan executed with hash joins and
// with nested-loop joins yields identical row counts, and a join algorithm
// the engine has no operator for is an error, not a panic.
func TestJoinAlgorithmsAgree(t *testing.T) {
	l := lab(t)
	for _, qid := range []string{"3b", "1a", "4b", "32a"} {
		g, root := l.planFor(t, qid, plan.Bushy)
		var counts []int64
		for _, algo := range []plan.JoinAlgo{plan.HashJoin, plan.NestedLoopJoin} {
			forceAlgo(root, algo)
			res, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
			if err != nil {
				t.Fatalf("%s/%v: %v", qid, algo, err)
			}
			counts = append(counts, res.Rows)
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: HJ/NLJ disagree: %v", qid, counts)
		}
	}
	g, root := l.planFor(t, "3b", plan.Bushy)
	forceAlgo(root, plan.JoinAlgo(3))
	if _, err := Run(l.db, l.pkfk, g, root, Config{}); err == nil || !strings.Contains(err.Error(), "engine: unknown join algorithm") {
		t.Errorf("JoinAlgo(3): err = %v, want unknown join algorithm", err)
	}
}

// TestIndexJoinAgreesWithHashJoin runs plans that contain INL joins (as
// chosen by the optimizer with FK indexes) and compares against the same
// plan with all INLs flipped to hash joins.
func TestIndexJoinAgreesWithHashJoin(t *testing.T) {
	l := lab(t)
	for _, qid := range []string{"13d", "17e", "6a", "25a"} {
		g, root := l.planFor(t, qid, plan.Bushy)
		res1, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		forceAlgo(root, plan.HashJoin)
		res2, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		if res1.Rows != res2.Rows {
			t.Errorf("%s: INL plan %d rows vs HJ plan %d rows", qid, res1.Rows, res2.Rows)
		}
	}
}

// TestUndersizedHashTablesCostWork reproduces the §4.1 mechanism: a build
// side underestimated by 1000x yields long collision chains; enabling
// rehash removes the penalty without changing the result.
func TestUndersizedHashTablesCostWork(t *testing.T) {
	l := lab(t)
	g, root := l.planFor(t, "17e", plan.Bushy)
	forceAlgo(root, plan.HashJoin)
	// Sabotage the estimates: pretend every build side has 1 row.
	var sabotage func(n *plan.Node)
	sabotage = func(n *plan.Node) {
		if n == nil {
			return
		}
		n.ECard = 1
		sabotage(n.Left)
		sabotage(n.Right)
	}
	sabotage(root)
	bad, err := Run(l.db, l.pkfk, g, root, Config{Rehash: false})
	if err != nil {
		t.Fatal(err)
	}
	good, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Rows != good.Rows {
		t.Fatalf("rehash changed the result: %d vs %d", bad.Rows, good.Rows)
	}
	if bad.Work < 2*good.Work {
		t.Errorf("undersized hash tables cost %d work vs %d with rehash; expected a large penalty", bad.Work, good.Work)
	}
}

// TestWorkLimitTimesOut verifies the §4.1 timeout: an O(n*m) nested-loop
// plan hits the limit and reports TimedOut.
func TestWorkLimitTimesOut(t *testing.T) {
	l := lab(t)
	g, root := l.planFor(t, "17e", plan.Bushy)
	forceAlgo(root, plan.NestedLoopJoin)
	res, err := Run(l.db, l.pkfk, g, root, Config{WorkLimit: 10000})
	if err == nil || !errors.Is(err, ErrWorkLimit) {
		t.Fatalf("expected work-limit error, got %v", err)
	}
	if !res.TimedOut {
		t.Fatal("TimedOut not set")
	}
	if res.Work <= 10000 {
		t.Fatalf("work %d not past the limit", res.Work)
	}
}

// TestContextCancellationAborts: a cancelled Config.Ctx aborts execution
// at a block boundary with the context's error, while a live context
// changes nothing — neither the result nor the metered work.
func TestContextCancellationAborts(t *testing.T) {
	l := lab(t)
	g, root := l.planFor(t, "17e", plan.Bushy)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true, Ctx: cancelled})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
	if res.TimedOut {
		t.Fatal("cancellation must not masquerade as a work-limit timeout")
	}

	// A live context is inert: work and rows identical to no context.
	bare, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Rows != bounded.Rows || bare.Work != bounded.Work {
		t.Fatalf("live ctx changed execution: (%d rows, %d work) vs (%d rows, %d work)",
			bare.Rows, bare.Work, bounded.Rows, bounded.Work)
	}
}

// TestNestedLoopCostsQuadraticWork: the same query runs orders of magnitude
// more work with NLJ than with hash joins — the asymptotic risk of §4.1.
func TestNestedLoopCostsQuadraticWork(t *testing.T) {
	l := lab(t)
	g, root := l.planFor(t, "2d", plan.Bushy)
	forceAlgo(root, plan.HashJoin)
	hj, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
	if err != nil {
		t.Fatal(err)
	}
	forceAlgo(root, plan.NestedLoopJoin)
	nl, err := Run(l.db, l.pkfk, g, root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// At the tiny test scale the gap is ~10x; it grows quadratically with
	// data size (TestWorkLimitTimesOut shows the blow-up).
	if nl.Work < 5*hj.Work {
		t.Errorf("NLJ work %d not far above HJ work %d", nl.Work, hj.Work)
	}
}

// TestShapedPlansExecute: restricted tree shapes execute to the same result.
func TestShapedPlansExecute(t *testing.T) {
	l := lab(t)
	var want int64 = -1
	for _, shape := range []plan.Shape{plan.Bushy, plan.LeftDeep, plan.RightDeep, plan.ZigZag} {
		g, root := l.planFor(t, "13a", shape)
		res, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if want == -1 {
			want = res.Rows
		} else if res.Rows != want {
			t.Errorf("%v: %d rows, want %d", shape, res.Rows, want)
		}
	}
}

// TestDeterministicWork: equal configurations yield identical work counts.
func TestDeterministicWork(t *testing.T) {
	l := lab(t)
	g, root := l.planFor(t, "13d", plan.Bushy)
	a, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Work != b.Work || a.Rows != b.Rows {
		t.Fatalf("non-deterministic execution: %+v vs %+v", a, b)
	}
	if a.Duration <= 0 {
		t.Fatal("no duration measured")
	}
}

// TestMissingIndexError: executing an INL plan without the index fails
// loudly instead of silently scanning.
func TestMissingIndexError(t *testing.T) {
	l := lab(t)
	g, root := l.planFor(t, "13d", plan.Bushy)
	var hasINL func(n *plan.Node) bool
	hasINL = func(n *plan.Node) bool {
		if n == nil || n.IsLeaf() {
			return false
		}
		return n.Algo == plan.IndexNLJoin || hasINL(n.Left) || hasINL(n.Right)
	}
	if !hasINL(root) {
		t.Skip("optimizer chose no INL for 13d at this scale")
	}
	if _, err := Run(l.db, index.NewSet(), g, root, Config{}); err == nil {
		t.Fatal("INL executed without indexes")
	}
}

// TestRunSubtree: a plan subtree executes exactly as it would inside the
// full plan — its row count is the true cardinality of its relation set,
// and repeated runs meter identical work. This is the contract adaptive
// re-optimization (internal/reopt) probes rely on.
func TestRunSubtree(t *testing.T) {
	l := lab(t)
	for _, qid := range []string{"13d", "3b", "17e"} {
		g, root := l.planFor(t, qid, plan.Bushy)
		if root.IsLeaf() {
			t.Fatalf("%s: plan has no joins", qid)
		}
		st, err := truecard.Compute(l.db, g, truecard.Options{})
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		r := NewRunner()
		// The root is itself a subtree: the Runner and the pooled Run
		// must agree on it.
		full, err := r.Run(l.db, l.pkfk, g, root, Config{Rehash: true})
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		asSub, err := Run(l.db, l.pkfk, g, root, Config{Rehash: true})
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		if asSub.Rows != full.Rows || asSub.Work != full.Work {
			t.Errorf("%s: Run(root) = %d rows/%d work, Runner.Run = %d/%d",
				qid, asSub.Rows, asSub.Work, full.Rows, full.Work)
		}
		// Every proper join subtree reports its true intermediate
		// cardinality for work strictly below the full plan's.
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			if n == nil || n.IsLeaf() {
				return
			}
			res, err := r.Run(l.db, l.pkfk, g, n, Config{Rehash: true})
			if err != nil {
				t.Fatalf("%s %v: %v", qid, n.S, err)
			}
			want, _ := st.Card(n.S)
			if res.Rows != int64(want) {
				t.Errorf("%s subtree %v: %d rows, true cardinality %.0f", qid, n.S, res.Rows, want)
			}
			if n != root && res.Work >= full.Work {
				t.Errorf("%s subtree %v: work %d not below full plan's %d", qid, n.S, res.Work, full.Work)
			}
			again, err := r.Run(l.db, l.pkfk, g, n, Config{Rehash: true})
			if err != nil {
				t.Fatalf("%s %v: %v", qid, n.S, err)
			}
			if again.Work != res.Work || again.Rows != res.Rows {
				t.Errorf("%s subtree %v: non-deterministic (%d/%d vs %d/%d)",
					qid, n.S, res.Rows, res.Work, again.Rows, again.Work)
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(root)
	}
}
