package truecard

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// bruteForce counts the join result of subgraph s by nested loops over the
// base tables, the reference implementation for correctness tests.
func bruteForce(db *storage.Database, g *query.Graph, s query.BitSet) int64 {
	rels := s.Elems()
	tables := make([]*storage.Table, len(rels))
	selected := make([][]int32, len(rels))
	for i, r := range rels {
		tables[i] = db.MustTable(g.Q.Rels[r].Table)
		f, err := query.NewFilter(g.Q.Rels[r].Preds, tables[i])
		if err != nil {
			panic(err)
		}
		selected[i] = f.SelectRange(nil, 0, tables[i].NumRows())
	}
	pos := make(map[int]int, len(rels))
	for i, r := range rels {
		pos[r] = i
	}
	var edges []query.Join
	for _, ei := range g.EdgesWithin(s).Elems() {
		edges = append(edges, g.Edges[ei].Preds...)
	}
	var count int64
	rows := make([]int, len(rels))
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(rels) {
			for _, j := range edges {
				li, ri := pos[g.Q.RelIndex(j.LeftAlias)], pos[g.Q.RelIndex(j.RightAlias)]
				lc := tables[li].MustColumn(j.LeftCol)
				rc := tables[ri].MustColumn(j.RightCol)
				if lc.IsNull(rows[li]) || rc.IsNull(rows[ri]) {
					return
				}
				if lc.Ints[rows[li]] != rc.Ints[rows[ri]] {
					return
				}
			}
			count++
			return
		}
		for _, r := range selected[depth] {
			rows[depth] = int(r)
			rec(depth + 1)
		}
	}
	rec(0)
	return count
}

// sansGraph is g with relation r's selection dropped: brute force over it
// is the reference for SansSelection(s, r).
func sansGraph(g *query.Graph, r int) *query.Graph {
	q := *g.Q
	q.Rels = append([]query.Rel(nil), g.Q.Rels...)
	q.Rels[r].Preds = nil
	return query.MustBuildGraph(&q)
}

// tinyDB builds a 3-table star with known cardinalities.
func tinyDB() (*storage.Database, *query.Graph) {
	db := storage.NewDatabase()
	tid := storage.NewIntColumn("id")
	tv := storage.NewIntColumn("v")
	for i := int64(1); i <= 10; i++ {
		tid.AppendInt(i)
		tv.AppendInt(i % 3)
	}
	db.Add(storage.NewTable("t", tid, tv))

	aid := storage.NewIntColumn("id")
	atid := storage.NewIntColumn("t_id")
	av := storage.NewIntColumn("v")
	for i := int64(1); i <= 30; i++ {
		aid.AppendInt(i)
		atid.AppendInt(1 + (i % 10))
		av.AppendInt(i % 5)
	}
	db.Add(storage.NewTable("a", aid, atid, av))

	bid := storage.NewIntColumn("id")
	btid := storage.NewIntColumn("t_id")
	for i := int64(1); i <= 20; i++ {
		bid.AppendInt(i)
		if i%7 == 0 {
			btid.AppendNull()
		} else {
			btid.AppendInt(1 + (i % 5)) // only t.id 1..5 matched
		}
	}
	db.Add(storage.NewTable("b", bid, btid))

	q := &query.Query{
		ID: "tiny",
		Rels: []query.Rel{
			{Alias: "t", Table: "t", Preds: []*query.Pred{query.LtInt("v", 2)}},
			{Alias: "a", Table: "a", Preds: []*query.Pred{query.EqInt("v", 1)}},
			{Alias: "b", Table: "b"},
		},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "t_id", RightAlias: "t", RightCol: "id"},
			{LeftAlias: "b", LeftCol: "t_id", RightAlias: "t", RightCol: "id"},
		},
	}
	return db, query.MustBuildGraph(q)
}

func TestTinyStarAgainstBruteForce(t *testing.T) {
	db, g := tinyDB()
	st, err := Compute(db, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.ConnectedSubsets(func(s query.BitSet) {
		want := bruteForce(db, g, s)
		got, ok := st.Card(s)
		if !ok {
			t.Fatalf("no card for %v", s)
		}
		if int64(got) != want {
			t.Errorf("card(%v) = %g, want %d", s, got, want)
		}
	})
	if st.NumSubgraphs() != 5 {
		// t, a, b, {t,a}, {t,b}, {t,a,b} minus... a-b not adjacent: subsets
		// are {t},{a},{b},{ta},{tb},{tab} = 6.
		if st.NumSubgraphs() != 6 {
			t.Fatalf("computed %d subgraphs", st.NumSubgraphs())
		}
	}
}

func TestSansSelection(t *testing.T) {
	db, g := tinyDB()
	st, err := Compute(db, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// sans({t,a}, a) joins filtered t with *unfiltered* a.
	ta := query.NewBitSet(0, 1)
	got, ok := st.SansSelection(ta, 1)
	if !ok {
		t.Fatal("no sans-selection value")
	}
	// Brute force: t rows with v<2 joined against all of a.
	want := bruteForce(db, sansGraph(g, 1), ta)
	if int64(got) != want {
		t.Fatalf("sans = %g, want %d", got, want)
	}
	// b has no predicates: sans == card.
	tb := query.NewBitSet(0, 2)
	sv, ok := st.SansSelection(tb, 2)
	cv, _ := st.Card(tb)
	if !ok || sv != cv {
		t.Fatalf("sans for unfiltered rel = %g, want card %g", sv, cv)
	}
	// Single relation: sans is the raw table size.
	sv, ok = st.SansSelection(query.Bit(1), 1)
	if !ok || sv != 30 {
		t.Fatalf("sans single = %g, want 30", sv)
	}
}

// Property: on random small schemas/queries, the DP matches brute force for
// every connected subgraph, and every sans-selection count of a filtered
// relation matches brute force with that relation's selection dropped.
func TestRandomQueriesAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDatabase()
		nRels := 2 + rng.Intn(3)
		q := &query.Query{ID: "rnd"}
		for i := 0; i < nRels; i++ {
			id := storage.NewIntColumn("id")
			fk := storage.NewIntColumn("fk")
			v := storage.NewIntColumn("v")
			rows := 3 + rng.Intn(10)
			for r := 0; r < rows; r++ {
				id.AppendInt(int64(rng.Intn(6)))
				if rng.Intn(8) == 0 {
					fk.AppendNull()
				} else {
					fk.AppendInt(int64(rng.Intn(6)))
				}
				v.AppendInt(int64(rng.Intn(3)))
			}
			name := string(rune('A' + i))
			db.Add(storage.NewTable(name, id, fk, v))
			rel := query.Rel{Alias: string(rune('a' + i)), Table: name}
			if rng.Intn(2) == 0 {
				rel.Preds = []*query.Pred{query.LeInt("v", int64(rng.Intn(3)))}
			}
			q.Rels = append(q.Rels, rel)
		}
		cols := []string{"id", "fk", "v"}
		for i := 1; i < nRels; i++ {
			p := rng.Intn(i)
			q.Joins = append(q.Joins, query.Join{
				LeftAlias: q.Rels[p].Alias, LeftCol: cols[rng.Intn(3)],
				RightAlias: q.Rels[i].Alias, RightCol: cols[rng.Intn(3)],
			})
		}
		// Occasionally add a parallel or transitive edge.
		if nRels >= 3 && rng.Intn(2) == 0 {
			q.Joins = append(q.Joins, query.Join{
				LeftAlias: q.Rels[0].Alias, LeftCol: cols[rng.Intn(3)],
				RightAlias: q.Rels[nRels-1].Alias, RightCol: cols[rng.Intn(3)],
			})
		}
		// Often add a same-column edge: x.c = y.d begets z.e = y.d for a
		// third relation z, sometimes with the transitive x.c = z.e.
		// Extending a subgraph holding x and z by y then meets two
		// predicates on y.d, and unless the transitive edge is present the
		// second one (a residual on the hash-key column) is not implied by
		// the subgraph's own join.
		if nRels >= 3 && rng.Intn(3) != 0 {
			j := q.Joins[rng.Intn(len(q.Joins))]
			var zs []string
			for _, rel := range q.Rels {
				if rel.Alias != j.LeftAlias && rel.Alias != j.RightAlias {
					zs = append(zs, rel.Alias)
				}
			}
			z, zc := zs[rng.Intn(len(zs))], cols[rng.Intn(3)]
			q.Joins = append(q.Joins, query.Join{LeftAlias: z, LeftCol: zc, RightAlias: j.RightAlias, RightCol: j.RightCol})
			if rng.Intn(3) == 0 {
				q.Joins = append(q.Joins, query.Join{LeftAlias: j.LeftAlias, LeftCol: j.LeftCol, RightAlias: z, RightCol: zc})
			}
		}
		g := query.MustBuildGraph(q)
		st, err := Compute(db, g, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		connected := map[query.BitSet]bool{}
		g.ConnectedSubsets(func(s query.BitSet) { connected[s] = true })
		ok := true
		for s := range connected {
			want := bruteForce(db, g, s)
			if got, found := st.Card(s); !found || int64(got) != want {
				t.Logf("seed %d: card(%v) = %g (found %v), want %d", seed, s, got, found, want)
				ok = false
			}
			// Sans counts exist for every filtered r whose removal leaves a
			// connected subgraph (or nothing).
			for _, r := range s.Elems() {
				rest := s.Remove(r)
				if len(g.Q.Rels[r].Preds) == 0 || !(rest.Empty() || connected[rest]) {
					continue
				}
				want := bruteForce(db, sansGraph(g, r), s)
				if got, found := st.SansSelection(s, r); !found || int64(got) != want {
					t.Logf("seed %d: sans(%v, %d) = %g (found %v), want %d", seed, s, r, got, found, want)
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// smallIMDB returns the shared small test database; several tests use the
// same (scale, seed) and generating it once keeps the -race job fast.
var (
	smallOnce sync.Once
	smallDB   *storage.Database
)

func smallIMDB() *storage.Database {
	smallOnce.Do(func() {
		smallDB = imdb.Generate(imdb.Config{Scale: 0.05, Seed: 3})
	})
	return smallDB
}

// TestParallelEquivalenceJOB is the core parallelism contract: the DP's
// Dump (cards and sans entries, in their deterministic order) is identical
// at any worker count over real JOB queries. It runs in the -race -short
// CI job, which doubles as the race exercise of the level fan-out.
func TestParallelEquivalenceJOB(t *testing.T) {
	db := smallIMDB()
	for _, qid := range []string{"1a", "3b", "13d"} {
		g := query.MustBuildGraph(job.ByID(qid))
		serial, err := Compute(db, g, Options{Parallel: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", qid, err)
		}
		want := serial.Dump()
		for _, workers := range []int{2, 8} {
			st, err := Compute(db, g, Options{Parallel: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", qid, workers, err)
			}
			if got := st.Dump(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Dump at workers=%d differs from serial", qid, workers)
			}
		}
	}
}

// TestParallelComputeRepeatedRace hammers the shared lazy hash cache: many
// back-to-back parallel runs over a query whose level-2 subgraphs extend by
// the same relations, so workers collide on hashOf keys. Run under -race.
func TestParallelComputeRepeatedRace(t *testing.T) {
	db, g := tinyDB()
	want := int64(bruteForce(db, g, query.FullSet(g.N)))
	for i := 0; i < 25; i++ {
		st, err := Compute(db, g, Options{Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := st.Card(query.FullSet(g.N)); int64(got) != want {
			t.Fatalf("run %d: card = %g, want %d", i, got, want)
		}
	}
}

// TestMaxRowsReportsSubgraph pins two MaxRows fixes: overflow errors name
// the actual subgraph that blew the limit (not the empty set), and the
// limit is exact — equal to the largest materialised intermediate still
// succeeds, one below fails before emitting the overflowing tuple.
func TestMaxRowsReportsSubgraph(t *testing.T) {
	db, g := tinyDB()
	st, err := Compute(db, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dump()
	max := 0
	for _, e := range d.Cards {
		if !e.S.Single() && int(e.Card) > max {
			max = int(e.Card)
		}
	}
	if max < 2 {
		t.Fatalf("tinyDB intermediates too small to exercise MaxRows (max %d)", max)
	}
	// Sanity: no sans count may hit its own (SansRowsFactor*max) bound at
	// the exact-fit limit, or the success half of this test would flake.
	for _, e := range d.Sans {
		if !e.S.Single() && int(e.Card) > SansRowsFactor*max {
			t.Fatalf("sans(%v,%d)=%g exceeds %d*%d; pick a different fixture",
				e.S, e.Rel, e.Card, SansRowsFactor, max)
		}
	}
	if _, err := Compute(db, g, Options{MaxRows: max}); err != nil {
		t.Fatalf("MaxRows=%d (exact fit) should succeed: %v", max, err)
	}
	_, err = Compute(db, g, Options{MaxRows: max - 1})
	if err == nil {
		t.Fatalf("MaxRows=%d should fail", max-1)
	}
	if strings.Contains(err.Error(), "{}") {
		t.Fatalf("overflow error names the empty set: %v", err)
	}
	if !strings.Contains(err.Error(), "{0,") {
		t.Fatalf("overflow error does not name the offending subgraph: %v", err)
	}
}

// TestSansCountLimit pins the countJoin bound: a sans-selection count may
// legitimately exceed MaxRows (it gets SansRowsFactor headroom, here 1000
// counted vs MaxRows=125), but past that headroom it aborts with an error
// naming the subgraph and the unfiltered relation.
func TestSansCountLimit(t *testing.T) {
	db := storage.NewDatabase()
	tid := storage.NewIntColumn("id")
	tid.AppendInt(1)
	db.Add(storage.NewTable("t", tid))
	aid := storage.NewIntColumn("t_id")
	av := storage.NewIntColumn("v")
	for i := 0; i < 1000; i++ {
		aid.AppendInt(1)
		av.AppendInt(int64(i)) // predicate v=0 keeps exactly one row
	}
	db.Add(storage.NewTable("a", aid, av))
	q := &query.Query{
		ID: "sans",
		Rels: []query.Rel{
			{Alias: "t", Table: "t"},
			{Alias: "a", Table: "a", Preds: []*query.Pred{query.EqInt("v", 0)}},
		},
		Joins: []query.Join{{LeftAlias: "a", LeftCol: "t_id", RightAlias: "t", RightCol: "id"}},
	}
	g := query.MustBuildGraph(q)

	// Materialised intermediates are all 1 tuple; sans({t,a}, a) = 1000.
	// 1000 <= SansRowsFactor*125, so MaxRows=125 must succeed...
	st, err := Compute(db, g, Options{MaxRows: 125})
	if err != nil {
		t.Fatalf("sans count within headroom should succeed: %v", err)
	}
	if v, ok := st.SansSelection(query.NewBitSet(0, 1), 1); !ok || v != 1000 {
		t.Fatalf("sans = %g, want 1000", v)
	}
	// ...and MaxRows=124 (headroom 992 < 1000) must abort with a useful error.
	_, err = Compute(db, g, Options{MaxRows: 124})
	if err == nil {
		t.Fatal("sans count past headroom should fail")
	}
	for _, want := range []string{"sans-selection", "{0,1}"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestMaxSizeOption(t *testing.T) {
	db, g := tinyDB()
	st, err := Compute(db, g, Options{MaxSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Card(query.NewBitSet(0, 1, 2)); ok {
		t.Fatal("size-3 subgraph computed despite MaxSize=2")
	}
	if _, ok := st.Card(query.NewBitSet(0, 1)); !ok {
		t.Fatal("size-2 subgraph missing")
	}
	if st.MaxSize() != 2 {
		t.Fatalf("MaxSize = %d", st.MaxSize())
	}
}

func TestJOBQueryOnSmallData(t *testing.T) {
	db := smallIMDB()
	q := job.ByID("3b")
	g := query.MustBuildGraph(q)
	st, err := Compute(db, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := query.FullSet(g.N)
	want := bruteForceSmart(t, db, g, full)
	got, ok := st.Card(full)
	if !ok || int64(got) != want {
		t.Fatalf("JOB 3b card = %g, want %d", got, want)
	}
}

// bruteForceSmart is bruteForce but bails out if the tables are too large
// for a nested-loop reference run.
func bruteForceSmart(t *testing.T, db *storage.Database, g *query.Graph, s query.BitSet) int64 {
	prod := 1.0
	s.ForEach(func(r int) {
		tbl := db.MustTable(g.Q.Rels[r].Table)
		f, _ := query.NewFilter(g.Q.Rels[r].Preds, tbl)
		prod *= float64(len(f.SelectRange(nil, 0, tbl.NumRows())) + 1)
	})
	if prod > 5e7 {
		t.Skip("reference cross product too large")
	}
	return bruteForce(db, g, s)
}
