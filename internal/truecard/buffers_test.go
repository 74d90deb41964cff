package truecard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// observe installs hook as resultHook until the test ends. Tests that use
// it must not run in parallel with other Computes of the same graph.
func observe(t *testing.T, hook func(g *query.Graph, s query.BitSet, res *result)) {
	t.Helper()
	resultHook = hook
	t.Cleanup(func() { resultHook = nil })
}

// synthGraph builds an n-relation query whose edges join relation a's id
// to relation b's k column, on small tables with repeated keys, NULLs and
// a selection on every odd relation, so results have several columns and
// several tuples per key.
func synthGraph(id string, n int, edges [][2]int) (*storage.Database, *query.Graph) {
	db := storage.NewDatabase()
	q := &query.Query{ID: id}
	for i := 0; i < n; i++ {
		ids, k, v := storage.NewIntColumn("id"), storage.NewIntColumn("k"), storage.NewIntColumn("v")
		for r := 0; r < 6+2*i; r++ {
			ids.AppendInt(int64(r % 5))
			if r%7 == 3 {
				k.AppendNull()
			} else {
				k.AppendInt(int64((3*r + i) % 5))
			}
			v.AppendInt(int64(r % 4))
		}
		name := fmt.Sprintf("t%d", i)
		db.Add(storage.NewTable(name, ids, k, v))
		rel := query.Rel{Alias: name, Table: name}
		if i%2 == 1 {
			rel.Preds = []*query.Pred{query.LeInt("v", 2)}
		}
		q.Rels = append(q.Rels, rel)
	}
	for _, e := range edges {
		q.Joins = append(q.Joins, query.Join{
			LeftAlias: fmt.Sprintf("t%d", e[0]), LeftCol: "id",
			RightAlias: fmt.Sprintf("t%d", e[1]), RightCol: "k",
		})
	}
	return db, query.MustBuildGraph(q)
}

// TestResultsKeepOnlyProbedColumns pins the pruning rule: every
// materialised result of S holds exactly the columns of the relations with
// a neighbour outside S, in ascending relation order, and the full set and
// the MaxSize level hold none. Each kept column is checked from the hook,
// before it is recycled: its length is the result's row count, every row
// passes its relation's selection, and every join predicate between two
// kept columns holds tuple by tuple.
func TestResultsKeepOnlyProbedColumns(t *testing.T) {
	type testCase struct {
		name    string
		db      *storage.Database
		g       *query.Graph
		maxSize int
	}
	chainDB, chain := synthGraph("chain", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	starDB, star := synthGraph("star", 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	cases := []testCase{{"chain", chainDB, chain, 0}, {"star", starDB, star, 0}}
	db := imdb.Generate(imdb.Config{Scale: 0.02, Seed: 42})
	for _, qid := range []string{"13d", "29a", "31c"} {
		cases = append(cases, testCase{qid, db, query.MustBuildGraph(job.ByID(qid)), 0})
	}
	cases = append(cases, testCase{"29a/MaxSize=3", db, query.MustBuildGraph(job.ByID("29a")), 3})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			maxSize := g.N
			if tc.maxSize > 0 {
				maxSize = tc.maxSize
			}
			selected := make([][]bool, g.N) // per relation: does the row pass its selection?
			for i, rel := range g.Q.Rels {
				tbl := tc.db.MustTable(rel.Table)
				f, err := query.NewFilter(rel.Preds, tbl)
				if err != nil {
					t.Fatal(err)
				}
				selected[i] = make([]bool, tbl.NumRows())
				for _, row := range f.SelectRange(nil, 0, tbl.NumRows()) {
					selected[i][row] = true
				}
			}
			var mu sync.Mutex
			seen := map[query.BitSet]int{}
			observe(t, func(hg *query.Graph, s query.BitSet, res *result) {
				if hg != g {
					return
				}
				var want query.BitSet
				if s.Count() < maxSize {
					s.ForEach(func(x int) {
						if g.NeighborsOf(x)&^s != 0 {
							want = want.Add(x)
						}
					})
				}
				mu.Lock()
				defer mu.Unlock()
				seen[s] = res.n
				if res.rels != want || len(res.cols) != want.Count() {
					t.Errorf("result of %v keeps %v in %d columns, want %v", s, res.rels, len(res.cols), want)
					return
				}
				if err := checkColumns(tc.db, g, s, res, selected); err != nil {
					t.Error(err)
				}
			})
			st, err := Compute(tc.db, g, Options{MaxSize: tc.maxSize})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != st.NumSubgraphs() {
				t.Fatalf("hook saw %d results, store holds %d subgraphs", len(seen), st.NumSubgraphs())
			}
			for s, n := range seen {
				if card, _ := st.Card(s); card != float64(n) {
					t.Errorf("result of %v has %d rows, store says %g", s, n, card)
				}
			}
			if maxSize == g.N {
				if _, ok := seen[query.FullSet(g.N)]; !ok {
					t.Fatal("full set never reached the hook")
				}
			}
		})
	}

	// The oversized intermediate of this two-relation query is its full
	// set, which is counted, not materialised: the row limit binds all the
	// same, with the same error, naming the subgraph.
	t.Run("counted top level over MaxRows", func(t *testing.T) {
		db := storage.NewDatabase()
		tid := storage.NewIntColumn("id")
		tid.AppendInt(1)
		db.Add(storage.NewTable("t", tid))
		afk := storage.NewIntColumn("t_id")
		for range 10 {
			afk.AppendInt(1)
		}
		db.Add(storage.NewTable("a", afk))
		g := query.MustBuildGraph(&query.Query{
			ID:    "top",
			Rels:  []query.Rel{{Alias: "t", Table: "t"}, {Alias: "a", Table: "a"}},
			Joins: []query.Join{{LeftAlias: "a", LeftCol: "t_id", RightAlias: "t", RightCol: "id"}},
		})
		if _, err := Compute(db, g, Options{MaxRows: 10}); err != nil {
			t.Fatalf("MaxRows=10 (exact fit) should succeed: %v", err)
		}
		_, err := Compute(db, g, Options{MaxRows: 9})
		if err == nil || !strings.Contains(err.Error(), "intermediate {0,1} exceeds 9 rows") {
			t.Fatalf("MaxRows=9: got %v, want the counted full set {0,1} named", err)
		}
	})
}

// checkColumns verifies the kept columns of res, the result of s.
func checkColumns(db *storage.Database, g *query.Graph, s query.BitSet, res *result, selected [][]bool) error {
	for k, x := range res.rels.Elems() {
		col := res.cols[k]
		if len(col) != res.n {
			return fmt.Errorf("%v: column of %d has %d rows, result has %d", s, x, len(col), res.n)
		}
		for _, row := range col {
			if int(row) >= len(selected[x]) || !selected[x][row] {
				return fmt.Errorf("%v: column of %d holds row %d, which its selection drops", s, x, row)
			}
		}
	}
	for t := g.EdgesWithin(res.rels); t != 0; t &= t - 1 {
		for _, j := range g.Edges[t.First()].Preds {
			l, r := g.Q.RelIndex(j.LeftAlias), g.Q.RelIndex(j.RightAlias)
			lc := db.MustTable(g.Q.Rels[l].Table).MustColumn(j.LeftCol)
			rc := db.MustTable(g.Q.Rels[r].Table).MustColumn(j.RightCol)
			lrows, rrows := res.colOf(l), res.colOf(r)
			for i := range res.n {
				lr, rr := int(lrows[i]), int(rrows[i])
				if lc.IsNull(lr) || rc.IsNull(rr) || lc.Ints[lr] != rc.Ints[rr] {
					return fmt.Errorf("%v: tuple %d breaks %s.%s = %s.%s", s, i, j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol)
				}
			}
		}
	}
	return nil
}

// TestConcurrentComputesShareOnePool runs Computes of different JOB queries
// on four goroutines for several rounds, all borrowing from the one
// package-level buffer pool, and requires every Dump to equal that of a
// serial run. One goroutine also cancels a ComputeContext in the middle of
// level 3 and then computes the same query normally: a buffer handed back
// while a worker still wrote it would show here as a wrong Dump, and under
// -race as a race.
func TestConcurrentComputesShareOnePool(t *testing.T) {
	db := smallIMDB()
	qids := []string{"13d", "1a", "3b", "6a"}
	graphs := make([]*query.Graph, len(qids))
	want := make([]Dump, len(qids))
	for i, qid := range qids {
		graphs[i] = query.MustBuildGraph(job.ByID(qid))
		st, err := Compute(db, graphs[i], Options{Parallel: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", qid, err)
		}
		want[i] = st.Dump()
	}

	// The cancelled run gets a graph of its own, so the hook ignores the
	// other computations.
	cg := query.MustBuildGraph(job.ByID(qids[0]))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var level3 atomic.Int64
	observe(t, func(g *query.Graph, s query.BitSet, _ *result) {
		if g == cg && s.Count() == 3 && level3.Add(1) == 1 {
			cancel()
		}
	})

	var wg sync.WaitGroup
	for w := range qids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				g := graphs[w]
				if w == 0 && round == 1 {
					if _, err := ComputeContext(ctx, db, cg, Options{Parallel: 2}); !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled ComputeContext returned %v, want context.Canceled", err)
					}
					g = cg
				}
				st, err := Compute(db, g, Options{Parallel: 2})
				if err != nil {
					t.Errorf("%s round %d: %v", qids[w], round, err)
					return
				}
				if !reflect.DeepEqual(st.Dump(), want[w]) {
					t.Errorf("%s round %d: Dump differs from the serial run", qids[w], round)
				}
			}
		}()
	}
	wg.Wait()
	if level3.Load() == 0 {
		t.Fatal("the cancelled run never reached level 3")
	}
}
