package engine

import (
	"fmt"
	"sync"
	"testing"

	"jobench/internal/index"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/storage"
	"jobench/internal/truecard"
)

// intColumn builds an integer column of vals times mul; nil entries are
// NULL.
func intColumn(name string, mul int64, vals ...*int64) *storage.Column {
	c := storage.NewIntColumn(name)
	for _, v := range vals {
		if v == nil {
			c.AppendNull()
		} else {
			c.AppendInt(*v * mul)
		}
	}
	return c
}

func ip(v int64) *int64 { return &v }

// TestIndexJoinResidualsByHand runs one index-nested-loop join that takes
// every branch of the kernel, none of which the JOB plans reach together:
// an outer tuple with a NULL key, one whose key has no postings, a key
// residual (a second predicate on the index column) that is NULL or
// unequal for some outer tuples, a residual on a non-key inner column with
// NULLs on both sides, keys with several postings, an outer tuple repeated,
// and a filtered inner. Rows must equal the plan forced to a hash join, and
// the work a count by hand. Key spacing 1 resolves the index densely,
// 1<<40 by hashing.
func TestIndexJoinResidualsByHand(t *testing.T) {
	for _, spacing := range []int64{1, 1 << 40} {
		for _, block := range []int{1, 3, 1024} {
			t.Run(fmt.Sprintf("spacing=%d/block=%d", spacing, block), func(t *testing.T) {
				defer func(old int) { blockSize = old }(blockSize)
				blockSize = block
				checkIndexJoinByHand(t, spacing)
			})
		}
	}
}

func checkIndexJoinByHand(t *testing.T, spacing int64) {
	db := storage.NewDatabase()
	// Inner i: index on k, selection v < 1 (row 2 fails it).
	db.Add(storage.NewTable("i",
		intColumn("k", spacing, ip(10), ip(10), ip(10), ip(20), ip(20), nil, ip(30), ip(30), ip(30)),
		intColumn("x", 1, ip(1), ip(1), ip(1), ip(1), ip(1), ip(1), nil, ip(2), ip(1)),
		intColumn("v", 1, ip(0), ip(0), ip(1), ip(0), ip(0), ip(0), ip(0), ip(0), ip(0)),
	))
	// Outer o, one tuple per line of the count below.
	db.Add(storage.NewTable("o",
		intColumn("k", spacing, ip(10), ip(10), ip(20), nil, ip(30), ip(40), ip(30), ip(10)),
		intColumn("k2", spacing, ip(10), nil, ip(99), ip(10), ip(30), ip(40), ip(30), ip(10)),
		intColumn("x", 1, ip(1), ip(2), ip(1), ip(1), ip(2), ip(1), nil, ip(1)),
	))
	g := query.MustBuildGraph(&query.Query{
		ID: "hand",
		Rels: []query.Rel{
			{Alias: "o", Table: "o"},
			{Alias: "i", Table: "i", Preds: []*query.Pred{query.LtInt("v", 1)}},
		},
		Joins: []query.Join{
			{LeftAlias: "o", LeftCol: "k", RightAlias: "i", RightCol: "k"},  // the index key
			{LeftAlias: "o", LeftCol: "k2", RightAlias: "i", RightCol: "k"}, // a key residual
			{LeftAlias: "o", LeftCol: "x", RightAlias: "i", RightCol: "x"},  // a per-row residual
		},
	})
	idx := index.NewSet()
	if err := idx.BuildHashOn(db, "i", "k", false); err != nil {
		t.Fatal(err)
	}
	if _, dense := idx.Get("i", "k").DenseView(); dense != (spacing == 1) {
		t.Fatalf("spacing %d: dense index = %v", spacing, dense)
	}
	// Postings: 10 -> rows 0,1,2; 20 -> 3,4; 30 -> 6,7,8. Per outer tuple,
	// RandomAccessFactor plus one unit per posting (a NULL key: one unit),
	// then one unit per emitted pair:
	//
	//	o0 k=10 k2=10 x=1     4+3  rows 0,1 (row 2 fails v < 1)  2 pairs
	//	o1 k=10 k2=NULL       4+3  key residual fails             0
	//	o2 k=20 k2=99         4+2  key residual fails             0
	//	o3 k=NULL             1                                   0
	//	o4 k=30 k2=30 x=2     4+3  row 7 (6: x NULL; 8: x=1)      1
	//	o5 k=40 k2=40         4+0  no postings                    0
	//	o6 k=30 k2=30 x=NULL  4+3  x residual fails on NULL       0
	//	o7 = o0               4+3                                 2
	const (
		wantRows    = 5
		wantINLWork = 7 + 7 + 6 + 1 + 7 + 4 + 7 + 7 + wantRows
		wantScanO   = 8 + 8 // every o tuple scanned and emitted
	)
	leaf := func(r int) *plan.Node { return &plan.Node{S: query.Bit(r), Rel: r} }
	root := &plan.Node{S: query.FullSet(2), Rel: -1, Algo: plan.IndexNLJoin,
		Left: leaf(0), Right: leaf(1), EdgeIdxs: []int{0}}
	st := make([]plan.NodeStats, plan.NumNodes(root))
	res, err := Run(db, idx, g, root, Config{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != wantRows || st[0].WorkUnits != wantINLWork || res.Work != wantINLWork+wantScanO {
		t.Errorf("rows %d, INL work %d, total work %d; want %d, %d, %d",
			res.Rows, st[0].WorkUnits, res.Work, wantRows, wantINLWork, wantINLWork+wantScanO)
	}
	hj := clonePlan(root)
	hj.Algo = plan.HashJoin
	if res, err = Run(db, idx, g, hj, Config{}); err != nil {
		t.Fatal(err)
	}
	if res.Rows != wantRows {
		t.Errorf("hash join: %d rows, want %d", res.Rows, wantRows)
	}
}

// TestSkewPlansMatchTrueCardinalities is the per-node differential on the
// skewed world: every executed operator of every DP plan reports exactly
// truecard's cardinality of its relation set. The inner of an index join
// is never scanned, so it has no actuals to check. -short checks the first
// quarter of the queries, whose truth computes in milliseconds.
func TestSkewPlansMatchTrueCardinalities(t *testing.T) {
	w := skewWorld(t, skewTestScale)
	plans := w.plans
	if testing.Short() {
		plans = plans[:len(plans)/4]
	}
	var nodes, inl, inlNonEmpty int
	for _, p := range plans {
		truth, err := truecard.Compute(w.db, p.g, truecard.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		st := make([]plan.NodeStats, plan.NumNodes(p.root))
		if _, err := Run(w.db, w.pkfk, p.g, p.root, Config{Rehash: true, Stats: st}); err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		var walk func(n *plan.Node, id int)
		walk = func(n *plan.Node, id int) {
			want, ok := truth.Card(n.S)
			if !ok {
				t.Fatalf("%s: no true cardinality for %v", p.id, n.S)
			}
			if got := st[id].RowsOut; got != int64(want) {
				t.Errorf("%s node %d %v: %d rows, true cardinality %.0f", p.id, id, n.S, got, want)
			}
			nodes++
			if n.IsLeaf() {
				return
			}
			if n.Algo == plan.IndexNLJoin {
				inl++
				if want > 0 {
					inlNonEmpty++
				}
			}
			walk(n.Left, plan.LeftChildID(id))
			if n.Algo != plan.IndexNLJoin {
				walk(n.Right, n.RightChildID(id))
			}
		}
		walk(p.root, 0)
	}
	t.Logf("checked %d executed nodes; %d index-nested-loop joins, %d of them non-empty", nodes, inl, inlNonEmpty)
}

// TestConcurrentIndexJoins runs the skewed world's plans, which are mostly
// index-nested-loop joins, from several goroutines through the pooled Run
// over one shared index set: pooled Runners carry cached selection bitmaps
// from one execution to the next, and every answer must still equal a
// serial run's.
func TestConcurrentIndexJoins(t *testing.T) {
	w := skewWorld(t, skewTestScale)
	plans := w.plans
	if testing.Short() {
		plans = plans[:len(plans)/4]
	}
	want := make([]Result, len(plans))
	for i, p := range plans {
		res, err := NewRunner().Run(w.db, w.pkfk, p.g, p.root, Config{Rehash: true})
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		want[i] = res
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range plans {
				i := (j + k*len(plans)/workers) % len(plans) // workers start apart
				p := plans[i]
				res, err := Run(w.db, w.pkfk, p.g, p.root, Config{Rehash: true})
				if err != nil {
					errs <- fmt.Errorf("%s: %v", p.id, err)
					return
				}
				if res.Rows != want[i].Rows || res.Work != want[i].Work {
					errs <- fmt.Errorf("%s: %d rows/%d work concurrently, %d/%d serially",
						p.id, res.Rows, res.Work, want[i].Rows, want[i].Work)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
