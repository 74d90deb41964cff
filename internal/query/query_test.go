package query

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"jobench/internal/storage"
)

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(0, 3, 5)
	if !s.Has(0) || !s.Has(3) || !s.Has(5) || s.Has(1) {
		t.Fatal("membership broken")
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.First() != 0 {
		t.Fatalf("First = %d", s.First())
	}
	if got := s.Remove(3); got.Has(3) || got.Count() != 2 {
		t.Fatal("Remove broken")
	}
	if got := s.Add(1); !got.Has(1) {
		t.Fatal("Add broken")
	}
	if s.String() != "{0,3,5}" {
		t.Fatalf("String = %s", s.String())
	}
	if !FullSet(4).Contains(NewBitSet(1, 2)) {
		t.Fatal("Contains broken")
	}
	if !NewBitSet(2).Single() || NewBitSet(1, 2).Single() || BitSet(0).Single() {
		t.Fatal("Single broken")
	}
	if got := NewBitSet(1, 2).Elems(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Elems = %v", got)
	}
}

// Property: set algebra agrees with bit arithmetic.
func TestBitSetAlgebraProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := BitSet(a), BitSet(b)
		if x.Union(y) != BitSet(a|b) || x.Intersect(y) != BitSet(a&b) || x.Minus(y) != BitSet(a&^b) {
			return false
		}
		if x.Count() != bits.OnesCount64(a) {
			return false
		}
		return x.Overlaps(y) == (a&b != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SubsetsProper enumerates exactly 2^k - 2 subsets for a k-element
// set, all proper, non-empty and contained.
func TestSubsetEnumerationProperty(t *testing.T) {
	f := func(raw uint16) bool {
		s := BitSet(raw)
		if s == 0 {
			return true
		}
		count := 0
		ok := true
		s.SubsetsProper(func(sub BitSet) {
			count++
			if sub == 0 || sub == s || !s.Contains(sub) {
				ok = false
			}
		})
		want := 1<<uint(s.Count()) - 2
		return ok && count == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"hello", "%ell%", true},
		{"hello", "h%o", true},
		{"hello", "h%x", false},
		{"hello", "%o", true},
		{"hello", "h%", true},
		{"hello", "%", true},
		{"", "%", true},
		{"abcabc", "a%b%c", true},
		{"character-name-in-title", "%character%", true},
		{"top 250 rank", "top%rank", true},
		{"bottom 10 rank", "top%rank", false},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func testTable() *storage.Table {
	id := storage.NewIntColumn("id")
	year := storage.NewIntColumn("year")
	kind := storage.NewStringColumn("kind")
	kinds := []string{"movie", "tv series", "video movie", "episode"}
	for i := int64(0); i < 40; i++ {
		id.AppendInt(i)
		if i%10 == 9 {
			year.AppendNull()
		} else {
			year.AppendInt(1980 + i%40)
		}
		kind.AppendString(kinds[i%4])
	}
	return storage.NewTable("title", id, year, kind)
}

func TestPredicateCompileAndEval(t *testing.T) {
	tbl := testTable()
	count := func(p *Pred) int {
		f, err := NewFilter([]*Pred{p}, tbl)
		if err != nil {
			t.Fatalf("compile %s: %v", p, err)
		}
		return len(f.SelectRange(nil, 0, tbl.NumRows()))
	}
	if got := count(EqStr("kind", "movie")); got != 10 {
		t.Fatalf("EqStr = %d, want 10", got)
	}
	if got := count(EqStr("kind", "nonexistent")); got != 0 {
		t.Fatalf("EqStr missing = %d", got)
	}
	if got := count(NeStr("kind", "movie")); got != 30 {
		t.Fatalf("NeStr = %d, want 30", got)
	}
	if got := count(Like("kind", "%movie%")); got != 20 {
		t.Fatalf("Like = %d, want 20 (movie + video movie)", got)
	}
	if got := count(NotLike("kind", "%movie%")); got != 20 {
		t.Fatalf("NotLike = %d", got)
	}
	if got := count(IsNull("year")); got != 4 {
		t.Fatalf("IsNull = %d, want 4", got)
	}
	if got := count(NotNull("year")); got != 36 {
		t.Fatalf("NotNull = %d", got)
	}
	// year 2009, 2019 are NULLed out (i = 29 -> year 2009 ... wait i%10==9).
	if got := count(Between("year", 1990, 1999)); got != 9 {
		t.Fatalf("Between = %d, want 9 (one NULLed)", got)
	}
	// Years 2016..2019 minus the NULLed 2019 leave three matches.
	if got := count(GtInt("year", 2015)); got != 3 {
		t.Fatalf("GtInt = %d, want 3", got)
	}
	if got := count(InStr("kind", "movie", "episode")); got != 20 {
		t.Fatalf("InStr = %d", got)
	}
	if got := count(Or(EqStr("kind", "movie"), EqStr("kind", "episode"))); got != 20 {
		t.Fatalf("Or = %d", got)
	}
	if got := count(EqInt("id", 7)); got != 1 {
		t.Fatalf("EqInt = %d", got)
	}
	if got := count(InInt("id", 1, 2, 3, 100)); got != 3 {
		t.Fatalf("InInt = %d", got)
	}
}

func TestPredicateErrors(t *testing.T) {
	tbl := testTable()
	for _, p := range []*Pred{
		EqInt("missing", 1),                     // missing column
		Like("year", "%x%"),                     // LIKE on an int column
		EqStr("year", "x"),                      // string equality on an int column
		Or(EqInt("id", 1), EqInt("missing", 2)), // OR with a bad sub-predicate
	} {
		// Behind a conjunct that selects nothing, the error must still show.
		if _, err := NewFilter([]*Pred{EqStr("kind", "absent"), p}, tbl); err == nil {
			t.Errorf("%s accepted", p)
		}
	}
}

func TestFilterConjunction(t *testing.T) {
	tbl := testTable()
	f, err := NewFilter([]*Pred{EqStr("kind", "movie"), LtInt("id", 20)}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.SelectRange(nil, 0, tbl.NumRows()); !slices.Equal(got, []int32{0, 4, 8, 12, 16}) {
		t.Fatalf("conjunction = %v, want [0 4 8 12 16]", got)
	}
	// Appends after what dst holds, and a candidate list keeps its order.
	if got := f.Select([]int32{-1}, []int32{16, 3, 4, 30, 0}); !slices.Equal(got, []int32{-1, 16, 4, 0}) {
		t.Fatalf("Select = %v, want [-1 16 4 0]", got)
	}
	// Empty conjunction accepts everything.
	all, err := NewFilter(nil, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if got := all.SelectRange(nil, 3, 6); !slices.Equal(got, []int32{3, 4, 5}) {
		t.Fatalf("empty conjunction selected %v over [3,6)", got)
	}
}

// chainQuery builds r0 - r1 - ... - r(n-1).
func chainQuery(n int) *Query {
	q := &Query{ID: "chain"}
	for i := 0; i < n; i++ {
		q.Rels = append(q.Rels, Rel{Alias: alias(i), Table: "t"})
	}
	for i := 0; i+1 < n; i++ {
		q.Joins = append(q.Joins, Join{LeftAlias: alias(i), LeftCol: "a", RightAlias: alias(i + 1), RightCol: "b"})
	}
	return q
}

func alias(i int) string { return string(rune('a' + i)) }

func TestGraphChain(t *testing.T) {
	g := MustBuildGraph(chainQuery(5))
	if g.N != 5 || len(g.Edges) != 4 {
		t.Fatalf("N=%d edges=%d", g.N, len(g.Edges))
	}
	if !g.Connected(FullSet(5)) {
		t.Fatal("chain not connected")
	}
	if g.Connected(NewBitSet(0, 2)) {
		t.Fatal("{0,2} should be disconnected in a chain")
	}
	if !g.Connected(NewBitSet(1, 2, 3)) {
		t.Fatal("{1,2,3} should be connected")
	}
	if got := g.Neighborhood(NewBitSet(1, 2)); got != NewBitSet(0, 3) {
		t.Fatalf("Neighborhood = %v", got)
	}
	if !g.ConnectedPair(NewBitSet(0, 1), NewBitSet(2, 3)) {
		t.Fatal("ConnectedPair broken")
	}
	if g.ConnectedPair(NewBitSet(0), NewBitSet(2)) {
		t.Fatal("non-adjacent pair reported connected")
	}
	// Chain of n has n*(n+1)/2 connected subsets.
	if got := g.CountConnectedSubsets(); got != 15 {
		t.Fatalf("CountConnectedSubsets = %d, want 15", got)
	}
}

func TestGraphBundlesParallelEdges(t *testing.T) {
	q := chainQuery(2)
	q.Joins = append(q.Joins, Join{LeftAlias: "b", LeftCol: "c", RightAlias: "a", RightCol: "d"})
	g := MustBuildGraph(q)
	if len(g.Edges) != 1 {
		t.Fatalf("parallel edges not bundled: %d", len(g.Edges))
	}
	if len(g.Edges[0].Preds) != 2 {
		t.Fatalf("bundle has %d preds", len(g.Edges[0].Preds))
	}
	// The second predicate was normalised so that LeftAlias is rel U.
	second := g.Edges[0].Preds[1]
	if second.LeftAlias != "a" || second.LeftCol != "d" {
		t.Fatalf("predicate not normalised: %+v", second)
	}
	if g.Edges[0].ColFor(q, 0) != "a" || g.Edges[0].ColFor(q, 1) != "b" {
		t.Fatal("ColFor broken")
	}
	if g.Edges[0].Other(0) != 1 || g.Edges[0].Other(1) != 0 {
		t.Fatal("Other broken")
	}
}

func TestEdgesBetweenAndWithin(t *testing.T) {
	g := MustBuildGraph(chainQuery(4))
	if got := g.EdgesBetween(NewBitSet(0, 1), NewBitSet(2, 3)); got.Count() != 1 || g.Edges[got.First()].U != 1 {
		t.Fatalf("EdgesBetween = %b", got)
	}
	if got := g.EdgesWithin(NewBitSet(0, 1, 2)); got.Elems()[0] != 0 || got.Elems()[1] != 1 || got.Count() != 2 {
		t.Fatalf("EdgesWithin = %b", got)
	}
}

// Property: on random graphs of up to 8 relations, EdgesBetween and
// EdgesWithin agree with a scan of g.Edges for every pair of disjoint
// relation sets.
func TestEdgeMasksMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		q := &Query{ID: "rnd"}
		for i := 0; i < n; i++ {
			q.Rels = append(q.Rels, Rel{Alias: alias(i), Table: "t"})
		}
		for k := rng.Intn(2 * n); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				q.Joins = append(q.Joins, Join{LeftAlias: alias(u), LeftCol: "a", RightAlias: alias(v), RightCol: "b"})
			}
		}
		g := MustBuildGraph(q)
		brute := func(in func(e Edge) bool) EdgeSet {
			var es EdgeSet
			for ei, e := range g.Edges {
				if in(e) {
					es |= 1 << uint(ei)
				}
			}
			return es
		}
		full := FullSet(n)
		for s1 := BitSet(0); s1 <= full; s1++ {
			want := brute(func(e Edge) bool { return s1.Has(e.U) && s1.Has(e.V) })
			if got := g.EdgesWithin(s1); got != want {
				t.Fatalf("%v: EdgesWithin(%v) = %b, want %b", g.Edges, s1, got, want)
			}
			rest := full.Minus(s1)
			for s2 := rest; ; s2 = (s2 - 1) & rest {
				want := brute(func(e Edge) bool {
					return s1.Has(e.U) && s2.Has(e.V) || s1.Has(e.V) && s2.Has(e.U)
				})
				if got := g.EdgesBetween(s1, s2); got != want {
					t.Fatalf("%v: EdgesBetween(%v, %v) = %b, want %b", g.Edges, s1, s2, got, want)
				}
				if s2 == 0 {
					break
				}
			}
		}
	}
}

// BuildGraph accepts up to 64 join edges, the width of an EdgeSet, and
// rejects more.
func TestBuildGraphEdgeLimit(t *testing.T) {
	clique := func(edges int) *Query {
		q := &Query{ID: "clique"}
		for i := 0; i < 12; i++ { // K12 has 66 edges
			q.Rels = append(q.Rels, Rel{Alias: alias(i), Table: "t"})
		}
		for u := 0; u < 12 && len(q.Joins) < edges; u++ {
			for v := u + 1; v < 12 && len(q.Joins) < edges; v++ {
				q.Joins = append(q.Joins, Join{LeftAlias: alias(u), LeftCol: "a", RightAlias: alias(v), RightCol: "b"})
			}
		}
		return q
	}
	g, err := BuildGraph(clique(64))
	if err != nil {
		t.Fatalf("64 edges: %v", err)
	}
	if got := g.EdgesWithin(FullSet(12)); got != ^EdgeSet(0) {
		t.Fatalf("EdgesWithin(all) = %b", got)
	}
	if _, err := BuildGraph(clique(65)); err == nil || !strings.Contains(err.Error(), "too many join edges") {
		t.Fatalf("65 edges: err = %v", err)
	}
}

// Property: ConnectedSubsets yields sets that are connected, unique, and
// ascending in cardinality; and on random graphs Connected agrees with a
// BFS reference implementation.
func TestConnectedSubsetsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		q := &Query{ID: "rnd"}
		for i := 0; i < n; i++ {
			q.Rels = append(q.Rels, Rel{Alias: alias(i), Table: "t"})
		}
		// Random spanning tree plus extra random edges.
		for i := 1; i < n; i++ {
			p := rng.Intn(i)
			q.Joins = append(q.Joins, Join{LeftAlias: alias(p), LeftCol: "a", RightAlias: alias(i), RightCol: "b"})
		}
		for k := 0; k < rng.Intn(3); k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				q.Joins = append(q.Joins, Join{LeftAlias: alias(u), LeftCol: "a", RightAlias: alias(v), RightCol: "b"})
			}
		}
		g := MustBuildGraph(q)
		seen := make(map[BitSet]bool)
		prev := 0
		ok := true
		g.ConnectedSubsets(func(s BitSet) {
			if seen[s] || !g.Connected(s) || s.Count() < prev {
				ok = false
			}
			seen[s] = true
			prev = s.Count()
		})
		// Reference connectivity check on a few random subsets.
		for k := 0; k < 20; k++ {
			s := BitSet(rng.Int63n(1<<uint(n)-1) + 1)
			if g.Connected(s) != bfsConnected(g, s) {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func bfsConnected(g *Graph, s BitSet) bool {
	elems := s.Elems()
	if len(elems) == 0 {
		return false
	}
	visited := map[int]bool{elems[0]: true}
	queue := []int{elems[0]}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		g.NeighborsOf(r).ForEach(func(o int) {
			if s.Has(o) && !visited[o] {
				visited[o] = true
				queue = append(queue, o)
			}
		})
	}
	return len(visited) == len(elems)
}

func TestQueryValidate(t *testing.T) {
	db := storage.NewDatabase()
	db.Add(testTable())
	info := storage.NewTable("info",
		storage.NewIntColumn("id"), storage.NewIntColumn("movie_id"))
	db.Add(info)

	good := &Query{
		ID: "q1",
		Rels: []Rel{
			{Alias: "t", Table: "title", Preds: []*Pred{EqStr("kind", "movie")}},
			{Alias: "mi", Table: "info"},
		},
		Joins: []Join{{LeftAlias: "mi", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"}},
	}
	if err := good.Validate(db); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	if got := good.NumJoins(); got != 1 {
		t.Fatalf("NumJoins = %d", got)
	}
	if !strings.Contains(good.SQL(), "mi.movie_id = t.id") {
		t.Fatalf("SQL rendering broken:\n%s", good.SQL())
	}

	bad := *good
	bad.Rels = append([]Rel(nil), good.Rels...)
	bad.Rels[1].Table = "nope"
	if err := bad.Validate(db); err == nil {
		t.Fatal("unknown table accepted")
	}

	disconnected := &Query{
		ID: "q2",
		Rels: []Rel{
			{Alias: "a", Table: "title"},
			{Alias: "b", Table: "info"},
		},
	}
	if err := disconnected.Validate(db); err == nil {
		t.Fatal("disconnected query accepted")
	}

	dupAlias := &Query{
		ID:   "q3",
		Rels: []Rel{{Alias: "t", Table: "title"}, {Alias: "t", Table: "info"}},
	}
	if err := dupAlias.Validate(db); err == nil {
		t.Fatal("duplicate alias accepted")
	}
}

func TestGraphDot(t *testing.T) {
	g := MustBuildGraph(chainQuery(3))
	dot := g.Dot()
	if !strings.Contains(dot, "a -- b") || !strings.Contains(dot, "b -- c") {
		t.Fatalf("dot output missing edges:\n%s", dot)
	}
}
