package plan

import (
	"strings"
	"testing"

	"jobench/internal/costmodel"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// fakeCards is a stub provider with explicit cardinalities.
type fakeCards struct {
	cards map[query.BitSet]float64
	base  map[int]float64 // raw table sizes
}

func (f fakeCards) Name() string { return "fake" }
func (f fakeCards) Card(s query.BitSet) float64 {
	if v, ok := f.cards[s]; ok {
		return v
	}
	return 1
}
func (f fakeCards) SansSelection(s query.BitSet, r int) float64 {
	if s.Single() {
		if v, ok := f.base[r]; ok {
			return v
		}
	}
	return f.Card(s) * 2
}

func chainSetup() (*query.Graph, *storage.Database) {
	db := storage.NewDatabase()
	for _, name := range []string{"A", "B", "C"} {
		id := storage.NewIntColumn("id")
		fk := storage.NewIntColumn("fk")
		for i := int64(0); i < 10; i++ {
			id.AppendInt(i)
			fk.AppendInt(i % 5)
		}
		db.Add(storage.NewTable(name, id, fk))
	}
	q := &query.Query{
		ID: "chain",
		Rels: []query.Rel{
			{Alias: "a", Table: "A", Preds: []*query.Pred{query.LtInt("id", 5)}},
			{Alias: "b", Table: "B"},
			{Alias: "c", Table: "C"},
		},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "fk"},
			{LeftAlias: "b", LeftCol: "id", RightAlias: "c", RightCol: "fk"},
		},
	}
	return query.MustBuildGraph(q), db
}

func linearPlan(algo JoinAlgo) *Node {
	j1 := &Node{S: query.NewBitSet(0, 1), Rel: -1, Algo: algo,
		Left: Leaf(0), Right: Leaf(1), EdgeIdxs: []int{0}}
	return &Node{S: query.NewBitSet(0, 1, 2), Rel: -1, Algo: algo,
		Left: j1, Right: Leaf(2), EdgeIdxs: []int{1}}
}

func TestShapeClassification(t *testing.T) {
	leftDeep := linearPlan(HashJoin)
	if !Conforms(leftDeep, LeftDeep) || !Conforms(leftDeep, ZigZag) || !Conforms(leftDeep, Bushy) {
		t.Fatal("left-deep plan misclassified")
	}
	if Conforms(leftDeep, RightDeep) {
		t.Fatal("left-deep plan accepted as right-deep")
	}
	rightDeep := &Node{S: query.NewBitSet(0, 1, 2), Rel: -1, Algo: HashJoin,
		Left: Leaf(2), EdgeIdxs: []int{1},
		Right: &Node{S: query.NewBitSet(0, 1), Rel: -1, Algo: HashJoin,
			Left: Leaf(0), Right: Leaf(1), EdgeIdxs: []int{0}}}
	if !Conforms(rightDeep, RightDeep) || Conforms(rightDeep, LeftDeep) {
		t.Fatal("right-deep plan misclassified")
	}
	if !Conforms(rightDeep, ZigZag) {
		t.Fatal("right-deep is a zig-zag")
	}
	// A one-leaf tree conforms to everything.
	if !Conforms(Leaf(0), LeftDeep) || !Conforms(Leaf(0), RightDeep) {
		t.Fatal("leaf misclassified")
	}
}

func TestShapeAllows(t *testing.T) {
	joined := &Node{S: query.NewBitSet(0, 1), Rel: -1}
	leaf := Leaf(2)
	if !LeftDeep.Allows(joined, leaf) || LeftDeep.Allows(leaf, joined) {
		t.Fatal("LeftDeep.Allows wrong")
	}
	if !RightDeep.Allows(leaf, joined) || RightDeep.Allows(joined, leaf) {
		t.Fatal("RightDeep.Allows wrong")
	}
	if !ZigZag.Allows(leaf, joined) || !ZigZag.Allows(joined, leaf) || ZigZag.Allows(joined, joined) {
		t.Fatal("ZigZag.Allows wrong")
	}
	if !Bushy.Allows(joined, joined) {
		t.Fatal("Bushy.Allows wrong")
	}
}

func TestValidate(t *testing.T) {
	g, _ := chainSetup()
	good := linearPlan(HashJoin)
	if err := Validate(good, g, query.FullSet(3)); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	// Wrong coverage.
	if err := Validate(good, g, query.FullSet(2)); err == nil {
		t.Fatal("wrong coverage accepted")
	}
	// Cross product: join of a and c has no edge.
	cross := &Node{S: query.NewBitSet(0, 2), Rel: -1, Algo: HashJoin,
		Left: Leaf(0), Right: Leaf(2)}
	if err := Validate(cross, g, query.NewBitSet(0, 2)); err == nil {
		t.Fatal("cross product accepted")
	}
	// INL with non-leaf right child.
	bad := linearPlan(HashJoin)
	badRoot := &Node{S: query.FullSet(3), Rel: -1, Algo: IndexNLJoin,
		Left: Leaf(2), Right: bad.Left, EdgeIdxs: []int{1}}
	if err := Validate(badRoot, g, query.FullSet(3)); err == nil {
		t.Fatal("INL with join right child accepted")
	}
	// Overlapping children.
	overlap := &Node{S: query.NewBitSet(0, 1), Rel: -1, Algo: HashJoin,
		Left: Leaf(0), Right: &Node{S: query.NewBitSet(0, 1), Rel: -1, Algo: HashJoin, Left: Leaf(0), Right: Leaf(1), EdgeIdxs: []int{0}},
		EdgeIdxs: []int{0}}
	if err := Validate(overlap, g, query.NewBitSet(0, 1)); err == nil {
		t.Fatal("overlapping children accepted")
	}
}

func TestCostWalker(t *testing.T) {
	g, db := chainSetup()
	cards := fakeCards{
		cards: map[query.BitSet]float64{
			query.Bit(0): 5, query.Bit(1): 10, query.Bit(2): 10,
			query.NewBitSet(0, 1): 10, query.FullSet(3): 20,
		},
		base: map[int]float64{0: 10, 1: 10, 2: 10},
	}
	m := costmodel.NewSimple()
	p := linearPlan(HashJoin)
	got := Cost(p, g, db, cards, m)
	// Scans: 3 tables * τ*10 = 6. HJ1 out=10, HJ2 out=20. Total 36.
	if got != 36 {
		t.Fatalf("cost = %g, want 36", got)
	}

	// INL at the top: right leaf scan is not charged; cost adds
	// λ*max(lookups, outer) with lookups = SansSelection = 2*out = 40.
	inl := linearPlan(HashJoin)
	inl.Algo = IndexNLJoin
	got = Cost(inl, g, db, cards, m)
	// a scan 2 + b scan 2 + HJ1 10 + INL 2*40=80 -> 94.
	if got != 94 {
		t.Fatalf("INL cost = %g, want 94", got)
	}

	// Subtrees price on their own: a b scan 4 + HJ1 10, and the c scan 2.
	if got := Cost(p.Left, g, db, cards, m); got != 14 {
		t.Fatalf("left subtree cost = %g, want 14", got)
	}
	if got := Cost(p.Right, g, db, cards, m); got != 2 {
		t.Fatalf("leaf cost = %g, want 2", got)
	}
}

func TestCostOrderingAcrossAlgorithms(t *testing.T) {
	g, db := chainSetup()
	cards := fakeCards{
		cards: map[query.BitSet]float64{
			query.Bit(0): 1000, query.Bit(1): 1000, query.Bit(2): 1000,
			query.NewBitSet(0, 1): 1000, query.FullSet(3): 1000,
		},
		base: map[int]float64{0: 1000, 1: 1000, 2: 1000},
	}
	for _, m := range []costmodel.Model{costmodel.NewPostgres(), costmodel.NewSimple()} {
		hj := Cost(linearPlan(HashJoin), g, db, cards, m)
		nl := Cost(linearPlan(NestedLoopJoin), g, db, cards, m)
		if nl <= hj {
			t.Errorf("%s: NLJ (%g) not more expensive than HJ (%g) at 1000x1000", m.Name(), nl, hj)
		}
	}
}

func TestExplain(t *testing.T) {
	g, _ := chainSetup()
	p := linearPlan(HashJoin)
	out := Explain(p, g)
	for _, want := range []string{"HashJoin", "Scan A a", "Scan B b", "Scan C c", "b.id=c.fk", "id < 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestRightKeyColumn(t *testing.T) {
	g, _ := chainSetup()
	j1 := &Node{S: query.NewBitSet(0, 1), Rel: -1, Algo: IndexNLJoin,
		Left: Leaf(0), Right: Leaf(1), EdgeIdxs: []int{0}}
	table, col := j1.RightKeyColumn(g)
	if table != "B" || col != "fk" {
		t.Fatalf("RightKeyColumn = %s.%s, want B.fk", table, col)
	}
	// Mirror orientation.
	j2 := &Node{S: query.NewBitSet(0, 1), Rel: -1, Algo: IndexNLJoin,
		Left: Leaf(1), Right: Leaf(0), EdgeIdxs: []int{0}}
	table, col = j2.RightKeyColumn(g)
	if table != "A" || col != "id" {
		t.Fatalf("RightKeyColumn = %s.%s, want A.id", table, col)
	}
}

func TestAlgoAndShapeStrings(t *testing.T) {
	for _, a := range []JoinAlgo{HashJoin, IndexNLJoin, NestedLoopJoin, SortMergeJoin} {
		if a.String() == "" || strings.HasPrefix(a.String(), "JoinAlgo") {
			t.Errorf("bad algo string %q", a.String())
		}
	}
	for _, s := range []Shape{Bushy, LeftDeep, RightDeep, ZigZag} {
		if s.String() == "" || strings.HasPrefix(s.String(), "Shape(") {
			t.Errorf("bad shape string %q", s.String())
		}
	}
}
