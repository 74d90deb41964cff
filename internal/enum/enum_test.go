package enum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
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

// testLab caches a small database + stats for all tests in this package.
type testLab struct {
	db   *storage.Database
	sdb  *stats.DB
	pg   cardest.Estimator
	pkfk *index.Set
	pk   *index.Set
}

var sharedLab *testLab

func lab(t *testing.T) *testLab {
	t.Helper()
	if sharedLab != nil {
		return sharedLab
	}
	db := imdb.Generate(imdb.Config{Scale: 0.05, Seed: 11})
	sdb := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 2000, Seed: 1})
	wl, _ := workload.Get("imdb")
	pkfk, err := wl.BuildIndexes(db, index.PKFK)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := wl.BuildIndexes(db, index.PKOnly)
	if err != nil {
		t.Fatal(err)
	}
	sharedLab = &testLab{db: db, sdb: sdb, pg: cardest.NewPostgres(db, sdb), pkfk: pkfk, pk: pk}
	return sharedLab
}

func (l *testLab) space(t *testing.T, qid string, shape plan.Shape) *Space {
	t.Helper()
	q := job.ByID(qid)
	if q == nil {
		t.Fatalf("no query %s", qid)
	}
	g := query.MustBuildGraph(q)
	return &Space{
		G:          g,
		DB:         l.db,
		Cards:      l.pg.ForQuery(g),
		Model:      costmodel.NewSimple(),
		Indexes:    l.pkfk,
		DisableNLJ: true,
		Shape:      shape,
	}
}

func TestDPProducesValidOptimalPlans(t *testing.T) {
	l := lab(t)
	for _, qid := range []string{"1a", "3b", "6a", "13d", "17b", "25c", "29a", "33a"} {
		sp := l.space(t, qid, plan.Bushy)
		root, err := DP(sp)
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		if err := plan.Validate(root, sp.G, query.FullSet(sp.G.N)); err != nil {
			t.Fatalf("%s: invalid plan: %v", qid, err)
		}
		if root.ECost <= 0 || math.IsInf(root.ECost, 0) {
			t.Fatalf("%s: cost %g", qid, root.ECost)
		}
	}
}

// dpsub is the O(3^n) reference DP: for every connected relation set
// (ascending by size) it considers every split into two connected,
// edge-linked parts and keeps the first strictly cheaper plan in its visit
// order. It is correct by construction; DP must return exactly its plan.
func dpsub(sp *Space) (*plan.Node, error) {
	sp = sp.prepared()
	g := sp.G
	full := query.FullSet(g.N)
	table := make(map[query.BitSet]*plan.Node, 1<<uint(g.N))
	for r := 0; r < g.N; r++ {
		table[query.Bit(r)] = sp.leafFor(r)
	}
	g.ConnectedSubsets(func(s query.BitSet) {
		if s.Single() {
			return
		}
		s.SubsetsProper(func(s1 query.BitSet) {
			s2 := s.Minus(s1)
			// Each unordered split appears twice; visit it once.
			// dpsubEmit checks both orientations and that both halves
			// have plans (i.e. are connected).
			if s1 < s2 {
				dpsubEmit(sp, table, s1, s2)
			}
		})
	})
	n := table[full]
	if n == nil {
		return nil, fmt.Errorf("enum: no plan for %s", g.Q.ID)
	}
	return n, nil
}

// dpsubEmit offers a (s1, s2) split to the table in both orientations; a
// plan replaces the incumbent only if it is strictly cheaper.
func dpsubEmit(sp *Space, table map[query.BitSet]*plan.Node, s1, s2 query.BitSet) {
	l, r := table[s1], table[s2]
	if l == nil || r == nil {
		return
	}
	s := s1.Union(s2)
	cur := table[s]
	if n := sp.joinOf(l, r); n != nil && (cur == nil || n.ECost < cur.ECost) {
		table[s] = n
		cur = n
	}
	if n := sp.joinOf(r, l); n != nil && (cur == nil || n.ECost < cur.ECost) {
		table[s] = n
	}
}

// checkSamePlan fails unless DP and dpsub both succeed or both fail, and on
// success return the same plan text at the bit-identical cost.
func checkSamePlan(t *testing.T, label string, sp *Space) {
	t.Helper()
	got, gerr := DP(sp)
	want, werr := dpsub(sp)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: DP error %v, dpsub error %v", label, gerr, werr)
	}
	if werr != nil {
		return
	}
	if g, w := plan.Explain(got, sp.G), plan.Explain(want, sp.G); g != w {
		t.Fatalf("%s: DP plan differs from dpsub\n--- DP\n%s--- dpsub\n%s", label, g, w)
	}
	if math.Float64bits(got.ECost) != math.Float64bits(want.ECost) {
		t.Fatalf("%s: DP cost %v != dpsub cost %v", label, got.ECost, want.ECost)
	}
}

var allShapes = []plan.Shape{plan.Bushy, plan.ZigZag, plan.LeftDeep, plan.RightDeep}

// TestDPMatchesDPsub: on every JOB query, under every shape restriction and
// both index designs, DP returns exactly the reference DPsub's plan, ties
// included. -short checks bushy plans under PK+FK only.
func TestDPMatchesDPsub(t *testing.T) {
	l := lab(t)
	shapes, designs := allShapes, []*index.Set{l.pkfk, l.pk}
	if testing.Short() {
		shapes, designs = shapes[:1], designs[:1]
	}
	for _, q := range job.Workload() {
		g := query.MustBuildGraph(q)
		cards := l.pg.ForQuery(g)
		for _, shape := range shapes {
			for di, idx := range designs {
				sp := &Space{
					G: g, DB: l.db, Cards: cards, Model: costmodel.NewSimple(),
					Indexes: idx, DisableNLJ: true, Shape: shape,
				}
				checkSamePlan(t, fmt.Sprintf("%s/%v/design%d", q.ID, shape, di), sp)
			}
		}
	}
}

// TestDPNodeAnnotations: on every JOB query under PostgreSQL estimates and
// true cardinalities, with PK and PK+FK indexes, every node of DP's plan
// carries its provider's cardinality bit for bit (under true cardinalities:
// q-error exactly 1 at every node), every join lists the edges between its
// children in ascending order, and plan.Cost re-prices the plan to the
// root's ECost bit for bit. -short checks every 10th query.
func TestDPNodeAnnotations(t *testing.T) {
	l := lab(t)
	model := costmodel.NewSimple()
	for qi, q := range job.Workload() {
		if testing.Short() && qi%10 != 0 {
			continue
		}
		g := query.MustBuildGraph(q)
		st, err := truecard.Compute(l.db, g, truecard.Options{})
		if err != nil {
			t.Fatalf("%s: truecard: %v", q.ID, err)
		}
		for _, cards := range []cardest.Provider{l.pg.ForQuery(g), cardest.True{Store: st}} {
			for di, idx := range []*index.Set{l.pk, l.pkfk} {
				label := fmt.Sprintf("%s/%s/design%d", q.ID, cards.Name(), di)
				root, err := DP(&Space{
					G: g, DB: l.db, Cards: cards, Model: model,
					Indexes: idx, DisableNLJ: true, Shape: plan.Bushy,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkAnnotations(t, label, g, cards, root)
				if c := plan.Cost(root, g, l.db, cards, model); c != root.ECost {
					t.Errorf("%s: re-costed plan %v, DP says %v", label, c, root.ECost)
				}
			}
		}
	}
}

// TestRecostEveryAlgorithm: GOO, QuickPick-100 and DP under each of the
// three cost models, with PK and PK+FK indexes and nested-loop joins
// allowed, annotate every node as TestDPNodeAnnotations requires, and
// plan.Cost re-prices each root to its ECost bit for bit, so the pricer the
// enumerators build once per call and the re-coster agree on every path.
// -short checks every 10th query.
func TestRecostEveryAlgorithm(t *testing.T) {
	l := lab(t)
	algos := []struct {
		name string
		run  func(*Space) (*plan.Node, error)
	}{
		{"GOO", GOO},
		{"QuickPick-100", func(sp *Space) (*plan.Node, error) { return QuickPickBest(sp, 100, 7) }},
		{"DP", DP},
	}
	models := []costmodel.Model{costmodel.NewSimple(), costmodel.NewPostgres(), costmodel.NewTuned()}
	for qi, q := range job.Workload() {
		if testing.Short() && qi%10 != 0 {
			continue
		}
		g := query.MustBuildGraph(q)
		cards := l.pg.ForQuery(g)
		for _, model := range models {
			for di, idx := range []*index.Set{l.pk, l.pkfk} {
				sp := &Space{G: g, DB: l.db, Cards: cards, Model: model, Indexes: idx}
				for _, a := range algos {
					label := fmt.Sprintf("%s/%s/%s/design%d", q.ID, a.name, model.Name(), di)
					root, err := a.run(sp)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkAnnotations(t, label, g, cards, root)
					if c := plan.Cost(root, g, l.db, cards, model); c != root.ECost {
						t.Errorf("%s: re-costed plan %v, %s says %v", label, c, a.name, root.ECost)
					}
				}
			}
		}
	}
}

// TestDPAllocatesOneNodePerSet: DP keeps one node per relation set, so on
// 29a, the workload's largest query, it allocates at most three objects
// per connected subset (a node, its edge list and a share of the table).
func TestDPAllocatesOneNodePerSet(t *testing.T) {
	sp := lab(t).space(t, "29a", plan.Bushy)
	bound := 3 * float64(sp.G.CountConnectedSubsets())
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := DP(sp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("DP on 29a allocates %.0f objects, want at most %.0f", allocs, bound)
	}
}

// TestSpaceSharedAcrossGoroutines: every algorithm prepares its own copy
// of the Space it is given and never writes the original, so concurrent
// calls on one Space each return the plan a lone call returns.
func TestSpaceSharedAcrossGoroutines(t *testing.T) {
	sp := lab(t).space(t, "13d", plan.Bushy)
	algos := []func(*Space) (*plan.Node, error){
		DP, GOO, func(sp *Space) (*plan.Node, error) { return QuickPickBest(sp, 20, 3) },
	}
	want := make([]string, len(algos))
	for i, run := range algos {
		root, err := run(sp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = plan.Explain(root, sp.G)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, run := range algos {
				root, err := run(sp)
				if err != nil {
					t.Error(err)
					return
				}
				if got := plan.Explain(root, sp.G); got != want[i] {
					t.Errorf("algorithm %d: concurrent plan\n%s differs from\n%s", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// checkAnnotations walks a plan checking each node's ECard against cards
// and each join's EdgeIdxs against a scan of g.Edges.
func checkAnnotations(t *testing.T, label string, g *query.Graph, cards cardest.Provider, n *plan.Node) {
	t.Helper()
	if want := cards.Card(n.S); n.ECard != want {
		t.Errorf("%s: node %v has ECard %v, provider says %v", label, n.S, n.ECard, want)
	}
	if n.IsLeaf() {
		return
	}
	var want []int
	for ei, e := range g.Edges {
		if n.Left.S.Has(e.U) && n.Right.S.Has(e.V) || n.Left.S.Has(e.V) && n.Right.S.Has(e.U) {
			want = append(want, ei)
		}
	}
	if !slices.Equal(n.EdgeIdxs, want) {
		t.Errorf("%s: node %v has EdgeIdxs %v, want %v", label, n.S, n.EdgeIdxs, want)
	}
	checkAnnotations(t, label, g, cards, n.Left)
	checkAnnotations(t, label, g, cards, n.Right)
}

// constCards gives every relation set the same cardinality, so every split
// of every set costs exactly the same and DP's tie-break alone picks the
// plan.
type constCards float64

func (c constCards) Card(query.BitSet) float64               { return float64(c) }
func (c constCards) SansSelection(query.BitSet, int) float64 { return float64(c) }
func (constCards) Name() string                              { return "constant" }

// syntheticGraph builds a join graph over n aliases of one table with an
// edge per (u, v) pair.
func syntheticGraph(t *testing.T, id string, n int, edges [][2]int) *query.Graph {
	t.Helper()
	q := &query.Query{ID: id}
	alias := func(r int) string { return fmt.Sprintf("r%d", r) }
	for r := 0; r < n; r++ {
		q.Rels = append(q.Rels, query.Rel{Alias: alias(r), Table: "title"})
	}
	for _, e := range edges {
		q.Joins = append(q.Joins, query.Join{LeftAlias: alias(e[0]), LeftCol: "id", RightAlias: alias(e[1]), RightCol: "id"})
	}
	g, err := query.BuildGraph(q)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tieGraphs returns chains, stars, cycles and seeded random connected graphs
// of 2..12 relations, and cliques of 2..10 (a 12-clique alone would take
// seconds per shape).
func tieGraphs(t *testing.T) []*query.Graph {
	var out []*query.Graph
	rng := rand.New(rand.NewSource(26))
	for n := 2; n <= 12; n++ {
		var chain, star, cycle, clique, random [][2]int
		for v := 1; v < n; v++ {
			chain = append(chain, [2]int{v - 1, v})
			star = append(star, [2]int{0, v})
			// A random spanning tree over a random numbering, plus extra
			// edges, so the hub is not always relation 0.
			random = append(random, [2]int{rng.Intn(v), v})
			for u := 0; u < v; u++ {
				clique = append(clique, [2]int{u, v})
			}
		}
		cycle = append(append(cycle, chain...), [2]int{n - 1, 0})
		perm := rng.Perm(n)
		for i := range random {
			random[i] = [2]int{perm[random[i][0]], perm[random[i][1]]}
		}
		for extra := rng.Intn(n); extra > 0; extra-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				random = append(random, [2]int{u, v})
			}
		}
		out = append(out,
			syntheticGraph(t, fmt.Sprintf("chain%d", n), n, chain),
			syntheticGraph(t, fmt.Sprintf("star%d", n), n, star),
			syntheticGraph(t, fmt.Sprintf("random%d", n), n, random))
		if n >= 3 {
			out = append(out, syntheticGraph(t, fmt.Sprintf("cycle%d", n), n, cycle))
		}
		if n <= 10 {
			out = append(out, syntheticGraph(t, fmt.Sprintf("clique%d", n), n, clique))
		}
	}
	return out
}

// TestDPMatchesDPsubWhenEverySplitTies: on JOB, ties come mostly from the
// two orientations of one split. Here a constant cardinality and integer
// costs make every split of every set cost exactly the same, so DP matches
// DPsub only if its tie-break reproduces DPsub's visit order.
func TestDPMatchesDPsubWhenEverySplitTies(t *testing.T) {
	l := lab(t)
	model := &costmodel.Simple{Tau: 1, Lambda: 2}
	for _, g := range tieGraphs(t) {
		for _, shape := range allShapes {
			sp := &Space{G: g, DB: l.db, Cards: constCards(8), Model: model, DisableNLJ: true, Shape: shape}
			checkSamePlan(t, fmt.Sprintf("%s/%v", g.Q.ID, shape), sp)
		}
	}
}

// permuteFrom returns q with its FROM list reordered by perm; joins name
// aliases, so they follow their relations to the new indexes.
func permuteFrom(q *query.Query, perm []int) *query.Query {
	p := &query.Query{ID: q.ID, Joins: q.Joins, Rels: make([]query.Rel, len(q.Rels))}
	for i, j := range perm {
		p.Rels[i] = q.Rels[j]
	}
	return p
}

// TestDPCostInvariantUnderFromPermutation: renumbering the relations changes
// which plan wins a tie, but never the optimal cost.
func TestDPCostInvariantUnderFromPermutation(t *testing.T) {
	l := lab(t)
	rng := rand.New(rand.NewSource(3))
	for _, q := range job.Workload() {
		base, err := DP(l.space(t, q.ID, plan.Bushy))
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for i := 0; i < 3; i++ {
			g := query.MustBuildGraph(permuteFrom(q, rng.Perm(len(q.Rels))))
			root, err := DP(&Space{
				G: g, DB: l.db, Cards: l.pg.ForQuery(g), Model: costmodel.NewSimple(),
				Indexes: l.pkfk, DisableNLJ: true,
			})
			if err != nil {
				t.Fatalf("%s permuted: %v", q.ID, err)
			}
			if math.Abs(root.ECost-base.ECost) > 1e-9*base.ECost {
				t.Errorf("%s: permuted FROM list costs %v, original %v", q.ID, root.ECost, base.ECost)
			}
		}
	}
}

// TestDPNoWorseThanHeuristics: on every JOB query DP's plan is at least as
// cheap as GOO's and QuickPick-1000's under the same estimates.
func TestDPNoWorseThanHeuristics(t *testing.T) {
	l := lab(t)
	for _, q := range job.Workload() {
		sp := l.space(t, q.ID, plan.Bushy)
		dp, err := DP(sp)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		goo, err := GOO(sp)
		if err != nil {
			t.Fatalf("%s: GOO: %v", q.ID, err)
		}
		qp, err := QuickPickBest(sp, 1000, 1)
		if err != nil {
			t.Fatalf("%s: QuickPick: %v", q.ID, err)
		}
		tol := 1e-9 * dp.ECost
		if goo.ECost < dp.ECost-tol || qp.ECost < dp.ECost-tol {
			t.Errorf("%s: DP %v beaten by GOO %v or QuickPick-1000 %v", q.ID, dp.ECost, goo.ECost, qp.ECost)
		}
	}
}

func TestShapeRestrictionsConformAndOrder(t *testing.T) {
	l := lab(t)
	for _, qid := range []string{"13d", "25c", "6a", "17b"} {
		costs := map[plan.Shape]float64{}
		for _, shape := range []plan.Shape{plan.Bushy, plan.ZigZag, plan.LeftDeep, plan.RightDeep} {
			sp := l.space(t, qid, shape)
			root, err := DP(sp)
			if err != nil {
				t.Fatalf("%s/%v: %v", qid, shape, err)
			}
			if !plan.Conforms(root, shape) {
				t.Fatalf("%s: plan does not conform to %v", qid, shape)
			}
			costs[shape] = root.ECost
		}
		// Bushy <= ZigZag <= LeftDeep (supersets can only be cheaper);
		// right-deep is not comparable to left-deep but >= bushy.
		if costs[plan.Bushy] > costs[plan.ZigZag]+1e-9 {
			t.Errorf("%s: bushy (%g) worse than zig-zag (%g)", qid, costs[plan.Bushy], costs[plan.ZigZag])
		}
		if costs[plan.ZigZag] > costs[plan.LeftDeep]+1e-9 {
			t.Errorf("%s: zig-zag (%g) worse than left-deep (%g)", qid, costs[plan.ZigZag], costs[plan.LeftDeep])
		}
		if costs[plan.Bushy] > costs[plan.RightDeep]+1e-9 {
			t.Errorf("%s: bushy (%g) worse than right-deep (%g)", qid, costs[plan.Bushy], costs[plan.RightDeep])
		}
	}
}

func TestDPIsOptimalAgainstExhaustiveSearch(t *testing.T) {
	// On a small query, DP's plan must be at least as cheap as any plan
	// QuickPick ever generates.
	l := lab(t)
	sp := l.space(t, "3a", plan.Bushy)
	best, err := DP(sp)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 500; i++ {
		p, err := QuickPick(sp, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.ECost < best.ECost-1e-9 {
			t.Fatalf("QuickPick found cheaper plan (%g < %g): DP not optimal", p.ECost, best.ECost)
		}
	}
}

func TestQuickPickValidAndSeeded(t *testing.T) {
	l := lab(t)
	sp := l.space(t, "13d", plan.Bushy)
	rng := rand.New(rand.NewSource(5))
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		p, err := QuickPick(sp, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(p, sp.G, query.FullSet(sp.G.N)); err != nil {
			t.Fatalf("invalid quickpick plan: %v", err)
		}
		seen[p.ECost] = true
	}
	if len(seen) < 5 {
		t.Fatalf("only %d distinct plan costs in 50 random plans", len(seen))
	}
	// Determinism for equal seeds.
	a, _ := QuickPickBest(sp, 100, 3)
	b, _ := QuickPickBest(sp, 100, 3)
	if a.ECost != b.ECost {
		t.Fatal("QuickPickBest not deterministic")
	}
	// Best-of-1000 is at least as good as best-of-10.
	c, _ := QuickPickBest(sp, 10, 3)
	if a.ECost > c.ECost+1e-9 {
		t.Fatalf("best-of-100 (%g) worse than best-of-10 (%g)", a.ECost, c.ECost)
	}
}

func TestGOOValidAndBetterThanWorstRandom(t *testing.T) {
	l := lab(t)
	for _, qid := range []string{"6a", "13d", "25c", "29a"} {
		sp := l.space(t, qid, plan.Bushy)
		g, err := GOO(sp)
		if err != nil {
			t.Fatalf("%s: %v", qid, err)
		}
		if err := plan.Validate(g, sp.G, query.FullSet(sp.G.N)); err != nil {
			t.Fatalf("%s: invalid GOO plan: %v", qid, err)
		}
		dp, err := DP(sp)
		if err != nil {
			t.Fatal(err)
		}
		if g.ECost < dp.ECost-1e-9 {
			t.Fatalf("%s: GOO (%g) beat DP (%g): DP not optimal", qid, g.ECost, dp.ECost)
		}
	}
}

func TestIndexAvailabilityGatesINL(t *testing.T) {
	l := lab(t)
	// Without indexes, no plan may contain an IndexNLJoin; with PK+FK
	// indexes on this workload, DP should use some.
	var countINL func(n *plan.Node) int
	countINL = func(n *plan.Node) int {
		if n == nil || n.IsLeaf() {
			return 0
		}
		c := 0
		if n.Algo == plan.IndexNLJoin {
			c = 1
		}
		return c + countINL(n.Left) + countINL(n.Right)
	}
	sawINL := false
	for _, qid := range []string{"13d", "25c", "17b", "6a", "29a"} {
		sp := l.space(t, qid, plan.Bushy)
		sp.Indexes = nil // no indexes
		root, err := DP(sp)
		if err != nil {
			t.Fatal(err)
		}
		if countINL(root) != 0 {
			t.Fatalf("%s: INL join without any index", qid)
		}
		sp = l.space(t, qid, plan.Bushy)
		root, err = DP(sp)
		if err != nil {
			t.Fatal(err)
		}
		if countINL(root) > 0 {
			sawINL = true
		}
	}
	if !sawINL {
		t.Error("no query used an index-nested-loop join under PK+FK indexes")
	}
}

func TestDisableNLJ(t *testing.T) {
	l := lab(t)
	var countNL func(n *plan.Node) int
	countNL = func(n *plan.Node) int {
		if n == nil || n.IsLeaf() {
			return 0
		}
		c := 0
		if n.Algo == plan.NestedLoopJoin {
			c = 1
		}
		return c + countNL(n.Left) + countNL(n.Right)
	}
	for _, qid := range []string{"13d", "29a"} {
		sp := l.space(t, qid, plan.Bushy)
		sp.DisableNLJ = true
		root, err := DP(sp)
		if err != nil {
			t.Fatal(err)
		}
		if countNL(root) != 0 {
			t.Fatalf("%s: nested-loop join despite DisableNLJ", qid)
		}
	}
}

func TestRightDeepCannotUseUpperIndexes(t *testing.T) {
	l := lab(t)
	// In a right-deep plan, only the bottom join may be an INL (§6.2).
	sp := l.space(t, "13d", plan.RightDeep)
	root, err := DP(sp)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *plan.Node, isBottom bool)
	walk = func(n *plan.Node, isBottom bool) {
		if n == nil || n.IsLeaf() {
			return
		}
		if n.Algo == plan.IndexNLJoin && !n.Right.IsLeaf() {
			t.Fatal("INL with non-leaf right child in right-deep plan")
		}
		walk(n.Right, false)
	}
	walk(root, true)
	if !plan.Conforms(root, plan.RightDeep) {
		t.Fatal("plan not right-deep")
	}
}
