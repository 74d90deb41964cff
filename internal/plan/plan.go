// Package plan defines physical operator trees: scans and joins annotated
// with join algorithms, the tree-shape taxonomy of the paper's §6.2
// (left-deep / right-deep / zig-zag / bushy), and the cost walker that
// prices a plan under any cardinality provider and cost model — the
// mechanism behind the paper's "optimize with estimates, cost with truth"
// methodology.
package plan

import (
	"fmt"
	"strings"

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
	// SortMergeJoin sorts both inputs and merges.
	SortMergeJoin
)

func (a JoinAlgo) String() string {
	switch a {
	case HashJoin:
		return "HashJoin"
	case IndexNLJoin:
		return "IndexNLJoin"
	case NestedLoopJoin:
		return "NestedLoop"
	case SortMergeJoin:
		return "SortMerge"
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

// Leaf returns a scan node for relation r.
func Leaf(r int) *Node { return &Node{S: query.Bit(r), Rel: r} }

// IsLeaf reports whether n is a base-relation scan.
func (n *Node) IsLeaf() bool { return n.Rel >= 0 }

// Relations returns the number of relations joined by this subtree.
func (n *Node) Relations() int { return n.S.Count() }

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

// IndexChecker answers whether an index exists on (table, column); the
// index.Set type implements it. It is how physical design (§4.3) reaches
// the optimizer.
type IndexChecker interface {
	Has(table, column string) bool
}

// NoIndexes is an IndexChecker with no indexes.
type NoIndexes struct{}

// Has implements IndexChecker.
func (NoIndexes) Has(string, string) bool { return false }

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

// Cost prices the plan under the given cardinality provider and cost model.
// Widths come from the database schema; sizes of base relations come from
// the provider so that the same walker serves both estimated costs (during
// optimization) and "true costs" (the §6 methodology of re-costing a plan
// with true cardinalities).
func Cost(n *Node, g *query.Graph, db *storage.Database, cards cardest.Provider, m costmodel.Model) float64 {
	cost, _ := costAndCard(n, g, db, cards, m)
	return cost
}

func costAndCard(n *Node, g *query.Graph, db *storage.Database, cards cardest.Provider, m costmodel.Model) (cost, card float64) {
	if n.IsLeaf() {
		t := db.MustTable(g.Q.Rels[n.Rel].Table)
		rows := cards.SansSelection(n.S, n.Rel) // |R| (full scan reads everything)
		return m.ScanCost(rows, float64(t.TupleWidth())), cards.Card(n.S)
	}
	out := cards.Card(n.S)
	lCost, lCard := costAndCard(n.Left, g, db, cards, m)
	switch n.Algo {
	case IndexNLJoin:
		// The right child is read through the index: no scan cost for it.
		r := n.Right.Rel
		t := db.MustTable(g.Q.Rels[r].Table)
		lookups := cards.SansSelection(n.S, r)
		innerRows := cards.SansSelection(n.Right.S, r)
		return lCost + m.IndexJoinCost(lCard, lookups, out, innerRows, float64(t.TupleWidth())), out
	case HashJoin:
		rCost, rCard := costAndCard(n.Right, g, db, cards, m)
		return lCost + rCost + m.HashJoinCost(lCard, rCard, out), out
	case SortMergeJoin:
		rCost, rCard := costAndCard(n.Right, g, db, cards, m)
		return lCost + rCost + m.SortMergeJoinCost(lCard, rCard, out), out
	case NestedLoopJoin:
		rCost, rCard := costAndCard(n.Right, g, db, cards, m)
		return lCost + rCost + m.NestedLoopJoinCost(lCard, rCard, out), out
	default:
		panic(fmt.Sprintf("plan: unknown join algorithm %v", n.Algo))
	}
}

// Annotate fills ECard/ECost on every node from the given provider/model.
func Annotate(n *Node, g *query.Graph, db *storage.Database, cards cardest.Provider, m costmodel.Model) {
	if n == nil {
		return
	}
	Annotate(n.Left, g, db, cards, m)
	Annotate(n.Right, g, db, cards, m)
	cost, card := costAndCard(n, g, db, cards, m)
	n.ECost, n.ECard = cost, card
}

// Explain renders the plan as an indented EXPLAIN-style tree.
func Explain(n *Node, g *query.Graph) string {
	var b strings.Builder
	explain(&b, n, g, 0)
	return b.String()
}

func explain(b *strings.Builder, n *Node, g *query.Graph, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		rel := g.Q.Rels[n.Rel]
		fmt.Fprintf(b, "%sScan %s %s", indent, rel.Table, rel.Alias)
		if len(rel.Preds) > 0 {
			preds := make([]string, len(rel.Preds))
			for i, p := range rel.Preds {
				preds[i] = p.String()
			}
			fmt.Fprintf(b, " [%s]", strings.Join(preds, " AND "))
		}
		fmt.Fprintf(b, "  (est %.0f rows)\n", n.ECard)
		return
	}
	conds := make([]string, 0, len(n.EdgeIdxs))
	for _, ei := range n.EdgeIdxs {
		for _, j := range g.Edges[ei].Preds {
			conds = append(conds, fmt.Sprintf("%s.%s=%s.%s", j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol))
		}
	}
	fmt.Fprintf(b, "%s%s on %s  (est %.0f rows, cost %.1f)\n",
		indent, n.Algo, strings.Join(conds, " AND "), n.ECard, n.ECost)
	explain(b, n.Left, g, depth+1)
	explain(b, n.Right, g, depth+1)
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
