// Package plan defines physical operator trees: scans and joins annotated
// with join algorithms, the tree-shape taxonomy of the paper's §6.2
// (left-deep / right-deep / zig-zag / bushy), and the Pricer that prices
// scans and joins under any cardinality provider and cost model, both while
// the enumerator builds a plan and when Cost re-prices a finished one — the
// mechanism behind the paper's "optimize with estimates, cost with truth"
// methodology.
package plan

import (
	"fmt"
	"strconv"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// JoinAlgo enumerates the physical join operators of the engine.
type JoinAlgo uint8

const (
	// HashJoin builds a hash table from the LEFT child and probes with the
	// right child (the textbook convention adopted in §6.2: left-deep
	// trees build a new table from each join result, right-deep trees
	// build from each base relation).
	HashJoin JoinAlgo = iota
	// IndexNLJoin looks each left-child tuple up in an index on the right
	// child, which must be a base relation.
	IndexNLJoin
	// NestedLoopJoin is the classic non-indexed nested loop (the risky
	// operator §4.1 disables).
	NestedLoopJoin
)

// String returns the operator's name as EXPLAIN prints it.
func (a JoinAlgo) String() string {
	switch a {
	case HashJoin:
		return "HashJoin"
	case IndexNLJoin:
		return "IndexNLJoin"
	case NestedLoopJoin:
		return "NestedLoop"
	default:
		return fmt.Sprintf("JoinAlgo(%d)", uint8(a))
	}
}

// Node is one operator of a physical plan.
type Node struct {
	// S is the set of relations this subtree joins.
	S query.BitSet
	// Rel is the relation index for leaves, -1 for joins.
	Rel int
	// Algo, Left, Right and EdgeIdxs describe join nodes: EdgeIdxs are the
	// join-graph edges applied here (the first predicate of the first edge
	// is the physical key; the rest are residual filters).
	Algo     JoinAlgo
	Left     *Node
	Right    *Node
	EdgeIdxs []int

	// ECard and ECost are the optimizer's estimates at planning time.
	ECard float64
	ECost float64
}

// IsLeaf reports whether n is a base-relation scan.
func (n *Node) IsLeaf() bool { return n.Rel >= 0 }

// Shape classifies join trees (§6.2).
type Shape uint8

const (
	// Bushy allows arbitrary trees.
	Bushy Shape = iota
	// LeftDeep requires every join's right child to be a base relation.
	LeftDeep
	// RightDeep requires every join's left child to be a base relation.
	RightDeep
	// ZigZag requires at least one base-relation child per join.
	ZigZag
)

// String returns the shape's name as the reports print it.
func (s Shape) String() string {
	switch s {
	case Bushy:
		return "bushy"
	case LeftDeep:
		return "left-deep"
	case RightDeep:
		return "right-deep"
	case ZigZag:
		return "zig-zag"
	default:
		return fmt.Sprintf("Shape(%d)", uint8(s))
	}
}

// Allows reports whether a join of (left, right) children conforms to the
// shape restriction.
func (s Shape) Allows(left, right *Node) bool {
	switch s {
	case LeftDeep:
		return right.IsLeaf()
	case RightDeep:
		return left.IsLeaf()
	case ZigZag:
		return left.IsLeaf() || right.IsLeaf()
	default:
		return true
	}
}

// Conforms reports whether an entire tree satisfies the shape.
func Conforms(n *Node, s Shape) bool {
	if n == nil || n.IsLeaf() {
		return true
	}
	return s.Allows(n.Left, n.Right) && Conforms(n.Left, s) && Conforms(n.Right, s)
}

// RightKeyColumn returns the table and column of the physical join key on
// the right child (the index side for IndexNLJoin).
func (n *Node) RightKeyColumn(g *query.Graph) (table, col string) {
	if len(n.EdgeIdxs) == 0 {
		panic("plan: join node without edges")
	}
	// The right child is a single relation for INL.
	r := n.Right.S.First()
	return g.Q.Rels[r].Table, g.Edges[n.EdgeIdxs[0]].ColFor(g.Q, r)
}

// Pricer prices scans and joins under one cardinality provider and cost
// model. It is the only place a plan's cost is computed: the enumerator
// prices each candidate join with it while building plans bottom-up, and
// Cost re-prices a finished plan with it, so a plan re-costed under the
// provider that built it reproduces its ECost bit for bit. NewPricer reads
// what depends on one relation only once: its width from the database
// schema and its unselected size from the provider.
type Pricer struct {
	cards cardest.Provider
	model costmodel.Model
	// rows[r] is relation r's size before its selection, |R|;
	// width[r] its tuple width in bytes.
	rows  []float64
	width []float64
}

// NewPricer builds the pricer of graph g under cards and model.
func NewPricer(g *query.Graph, db *storage.Database, cards cardest.Provider, model costmodel.Model) *Pricer {
	p := &Pricer{cards: cards, model: model, rows: make([]float64, g.N), width: make([]float64, g.N)}
	for r := range g.N {
		p.rows[r] = cards.SansSelection(query.Bit(r), r)
		p.width[r] = float64(db.MustTable(g.Q.Rels[r].Table).TupleWidth())
	}
	return p
}

// Priced is what pricing a join needs of one child: its relation set,
// cardinality and total cost.
type Priced struct {
	S    query.BitSet
	Card float64
	Cost float64
}

// Scan returns the cost of scanning relation r, which reads all of |R|.
func (p *Pricer) Scan(r int) float64 {
	return p.model.ScanCost(p.rows[r], p.width[r])
}

// Join returns the total cost of joining left and right with algo into out
// rows, summed as left.Cost + the join's own cost + right.Cost. An
// IndexNLJoin reads its right child, a single relation, through the index,
// so right.Cost is not added and right.Card is not read.
func (p *Pricer) Join(algo JoinAlgo, left, right Priced, out float64) float64 {
	var local float64
	switch algo {
	case HashJoin:
		local = p.model.HashJoinCost(left.Card, right.Card, out)
	case NestedLoopJoin:
		local = p.model.NestedLoopJoinCost(left.Card, right.Card, out)
	case IndexNLJoin:
		r := right.S.First()
		lookups := p.cards.SansSelection(left.S.Union(right.S), r)
		return left.Cost + p.model.IndexJoinCost(left.Card, lookups, out, p.rows[r], p.width[r])
	default:
		panic(fmt.Sprintf("plan: unknown join algorithm %v", algo))
	}
	return left.Cost + local + right.Cost
}

// IndexJoinFloor returns a lower bound on Join(IndexNLJoin, left, right, out)
// for the leaf right child r, without asking the provider anything: the
// join's cost with zero lookups. Provider answers are never negative, and
// costmodel.Model.IndexJoinCost never decreases as lookups grows, so no
// answer can price the join below it.
func (p *Pricer) IndexJoinFloor(left Priced, r int, out float64) float64 {
	return left.Cost + p.model.IndexJoinCost(left.Card, 0, out, p.rows[r], p.width[r])
}

// Cost prices the plan under the given cardinality provider and cost model,
// whatever provider built it: the §6 methodology of re-costing a plan with
// true cardinalities.
func Cost(n *Node, g *query.Graph, db *storage.Database, cards cardest.Provider, m costmodel.Model) float64 {
	return NewPricer(g, db, cards, m).price(n).Cost
}

// price re-prices the subtree at n bottom-up.
func (p *Pricer) price(n *Node) Priced {
	if n.IsLeaf() {
		cost := p.Scan(n.Rel)
		return Priced{S: n.S, Card: p.cards.Card(n.S), Cost: cost}
	}
	out := p.cards.Card(n.S)
	left, right := p.price(n.Left), Priced{S: n.Right.S}
	if n.Algo != IndexNLJoin {
		right = p.price(n.Right)
	}
	return Priced{S: n.S, Card: out, Cost: p.Join(n.Algo, left, right, out)}
}

// Explain renders the plan as an indented EXPLAIN-style tree.
func Explain(n *Node, g *query.Graph) string {
	return string(appendExplain(make([]byte, 0, 96*NumNodes(n)), n, g, 0))
}

// appendExplain appends the EXPLAIN lines of the subtree at n, indented by
// depth, to b: one line per operator with its condition (appendCond), its
// estimated rows and, on joins, its cost.
func appendExplain(b []byte, n *Node, g *query.Graph, depth int) []byte {
	for range depth {
		b = append(b, "  "...)
	}
	if n.IsLeaf() {
		rel := g.Q.Rels[n.Rel]
		b = append(append(append(append(b, "Scan "...), rel.Table...), ' '), rel.Alias...)
		if len(rel.Preds) > 0 {
			b = append(appendCond(append(b, " ["...), n, g), ']')
		}
		b = strconv.AppendFloat(append(b, "  (est "...), n.ECard, 'f', 0, 64)
		return append(b, " rows)\n"...)
	}
	b = appendCond(append(append(b, n.Algo.String()...), " on "...), n, g)
	b = strconv.AppendFloat(append(b, "  (est "...), n.ECard, 'f', 0, 64)
	b = strconv.AppendFloat(append(b, " rows, cost "...), n.ECost, 'f', 1, 64)
	b = append(b, ")\n"...)
	b = appendExplain(b, n.Left, g, depth+1)
	return appendExplain(b, n.Right, g, depth+1)
}

// appendCond appends n's condition to b: a scan's selection predicates or a
// join's predicates (alias.col=alias.col), joined by " AND ".
func appendCond(b []byte, n *Node, g *query.Graph) []byte {
	if n.IsLeaf() {
		for i, p := range g.Q.Rels[n.Rel].Preds {
			if i > 0 {
				b = append(b, " AND "...)
			}
			b = p.AppendTo(b)
		}
		return b
	}
	first := true
	for _, ei := range n.EdgeIdxs {
		for _, j := range g.Edges[ei].Preds {
			if !first {
				b = append(b, " AND "...)
			}
			first = false
			b = append(append(append(append(b, j.LeftAlias...), '.'), j.LeftCol...), '=')
			b = append(append(append(b, j.RightAlias...), '.'), j.RightCol...)
		}
	}
	return b
}

// Validate checks structural invariants of a plan for the given graph: the
// root covers exactly the relation set, children partition parents, edges
// connect the two sides, INL right children are leaves, and every leaf
// appears once.
func Validate(n *Node, g *query.Graph, want query.BitSet) error {
	if n == nil {
		return fmt.Errorf("plan: nil node")
	}
	if n.S != want {
		return fmt.Errorf("plan: node covers %v, want %v", n.S, want)
	}
	if n.IsLeaf() {
		if !n.S.Single() || n.S.First() != n.Rel {
			return fmt.Errorf("plan: leaf %d covers %v", n.Rel, n.S)
		}
		return nil
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("plan: join with missing child")
	}
	if n.Left.S.Overlaps(n.Right.S) || n.Left.S.Union(n.Right.S) != n.S {
		return fmt.Errorf("plan: children %v/%v do not partition %v", n.Left.S, n.Right.S, n.S)
	}
	if len(n.EdgeIdxs) == 0 {
		return fmt.Errorf("plan: cross product at %v", n.S)
	}
	for _, ei := range n.EdgeIdxs {
		e := g.Edges[ei]
		u, v := query.Bit(e.U), query.Bit(e.V)
		ok := (n.Left.S.Contains(u) && n.Right.S.Contains(v)) ||
			(n.Left.S.Contains(v) && n.Right.S.Contains(u))
		if !ok {
			return fmt.Errorf("plan: edge %d does not span the children of %v", ei, n.S)
		}
	}
	if n.Algo == IndexNLJoin && !n.Right.IsLeaf() {
		return fmt.Errorf("plan: IndexNLJoin with non-leaf right child at %v", n.S)
	}
	if err := Validate(n.Left, g, n.Left.S); err != nil {
		return err
	}
	return Validate(n.Right, g, n.Right.S)
}
