package query

import (
	"fmt"
	"math/bits"
	"strings"

	"jobench/internal/storage"
)

// Rel is one aliased relation of a query, with its base-table predicates.
// The same table may appear under several aliases (e.g. JOB's it/it2).
type Rel struct {
	Alias string
	Table string
	Preds []*Pred
}

// Join is one equi-join predicate between two aliased relations.
type Join struct {
	LeftAlias  string
	LeftCol    string
	RightAlias string
	RightCol   string
}

// Query is a select-project-join block: relations, their base-table
// predicates, and the join predicates connecting them. Projections are
// omitted deliberately — like the paper (footnote 4), we evaluate queries as
// MIN-wrapped joins, so only counts matter.
type Query struct {
	ID    string
	Rels  []Rel
	Joins []Join
}

// NumJoins returns the number of join predicates.
func (q *Query) NumJoins() int { return len(q.Joins) }

// RelIndex returns the index of the relation with the given alias, or -1.
func (q *Query) RelIndex(alias string) int {
	for i, r := range q.Rels {
		if r.Alias == alias {
			return i
		}
	}
	return -1
}

// SQL renders the query as SQL text (for documentation and EXPLAIN output).
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*)\nFROM ")
	for i, r := range q.Rels {
		if i > 0 {
			b.WriteString(",\n     ")
		}
		fmt.Fprintf(&b, "%s %s", r.Table, r.Alias)
	}
	b.WriteString("\nWHERE ")
	first := true
	for _, r := range q.Rels {
		for _, p := range r.Preds {
			if !first {
				b.WriteString("\n  AND ")
			}
			first = false
			b.WriteString(renderPred(r.Alias, p))
		}
	}
	for _, j := range q.Joins {
		if !first {
			b.WriteString("\n  AND ")
		}
		first = false
		fmt.Fprintf(&b, "%s.%s = %s.%s", j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol)
	}
	b.WriteString(";")
	return b.String()
}

// renderPred renders one predicate with its alias prefix; disjunctions
// prefix every branch so the output is valid SQL.
func renderPred(alias string, p *Pred) string {
	if p.Kind == PredOr {
		parts := make([]string, len(p.Disj))
		for i, d := range p.Disj {
			parts[i] = renderPred(alias, d)
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	}
	return alias + "." + p.String()
}

// Validate checks the query against a database schema: tables and columns
// exist, aliases are unique and resolvable, and the join graph is connected
// (the paper's queries never contain cross products).
func (q *Query) Validate(db *storage.Database) error {
	if len(q.Rels) == 0 {
		return fmt.Errorf("query %s: no relations", q.ID)
	}
	seen := make(map[string]bool, len(q.Rels))
	for _, r := range q.Rels {
		if seen[r.Alias] {
			return fmt.Errorf("query %s: duplicate alias %q", q.ID, r.Alias)
		}
		seen[r.Alias] = true
		t := db.Table(r.Table)
		if t == nil {
			return fmt.Errorf("query %s: unknown table %q", q.ID, r.Table)
		}
		if _, err := NewFilter(r.Preds, t); err != nil {
			return fmt.Errorf("query %s: %v", q.ID, err)
		}
	}
	for _, j := range q.Joins {
		li, ri := q.RelIndex(j.LeftAlias), q.RelIndex(j.RightAlias)
		if li < 0 || ri < 0 {
			return fmt.Errorf("query %s: join references unknown alias %q/%q", q.ID, j.LeftAlias, j.RightAlias)
		}
		for _, side := range []struct{ alias, col string }{
			{j.LeftAlias, j.LeftCol}, {j.RightAlias, j.RightCol},
		} {
			rel := q.Rels[q.RelIndex(side.alias)]
			if db.MustTable(rel.Table).Column(side.col) == nil {
				return fmt.Errorf("query %s: join column %s.%s not found", q.ID, side.alias, side.col)
			}
		}
	}
	g, err := BuildGraph(q)
	if err != nil {
		return fmt.Errorf("query %s: %v", q.ID, err)
	}
	if !g.Connected(FullSet(len(q.Rels))) {
		return fmt.Errorf("query %s: join graph is disconnected", q.ID)
	}
	return nil
}

// Edge is one join-graph edge. Several query-level join predicates between
// the same pair of relations collapse into one edge carrying all of them;
// the first predicate is the physical join key, the rest become residual
// filters.
type Edge struct {
	U, V  int // relation indexes with U < V
	Preds []Join
}

// Other returns the endpoint of e that is not r.
func (e Edge) Other(r int) int {
	if e.U == r {
		return e.V
	}
	return e.U
}

// ColFor returns the join column of the primary predicate on the side of
// relation r.
func (e Edge) ColFor(q *Query, r int) string {
	j := e.Preds[0]
	if q.RelIndex(j.LeftAlias) == r {
		return j.LeftCol
	}
	return j.RightCol
}

// Graph is the join graph of a query: nodes are relation indexes, edges are
// (possibly bundled) equi-join predicates. It provides the connectivity and
// neighbourhood operations that plan enumeration and true-cardinality
// computation rely on.
type Graph struct {
	Q     *Query
	N     int
	Edges []Edge

	neighbors []BitSet  // per relation
	incident  []EdgeSet // edges touching each relation
}

// EdgeSet is a set of edge indexes of one Graph, bit i standing for
// Edges[i]; BuildGraph rejects graphs with more than 64 edges (JOB queries
// have at most 16). Its methods visit edges in ascending index order.
type EdgeSet uint64

// Count returns the number of edges in the set.
func (e EdgeSet) Count() int { return BitSet(e).Count() }

// First returns the smallest edge index of a non-empty set.
func (e EdgeSet) First() int { return BitSet(e).First() }

// Has reports whether edge index ei is in the set.
func (e EdgeSet) Has(ei int) bool { return BitSet(e).Has(ei) }

// Add returns e with edge index ei added.
func (e EdgeSet) Add(ei int) EdgeSet { return EdgeSet(BitSet(e).Add(ei)) }

// Elems returns the edge indexes in ascending order.
func (e EdgeSet) Elems() []int { return BitSet(e).Elems() }

// AppendTo appends the edge indexes to dst in ascending order.
func (e EdgeSet) AppendTo(dst []int) []int {
	for t := e; t != 0; t &= t - 1 {
		dst = append(dst, bits.TrailingZeros64(uint64(t)))
	}
	return dst
}

// ForEach calls f for every edge index in ascending order.
func (e EdgeSet) ForEach(f func(ei int)) { BitSet(e).ForEach(f) }

// BuildGraph derives the join graph from a query.
func BuildGraph(q *Query) (*Graph, error) {
	n := len(q.Rels)
	if n == 0 {
		return nil, fmt.Errorf("empty query")
	}
	if n > 63 {
		return nil, fmt.Errorf("too many relations (%d > 63)", n)
	}
	g := &Graph{
		Q:         q,
		N:         n,
		neighbors: make([]BitSet, n),
		incident:  make([]EdgeSet, n),
	}
	byPair := make(map[[2]int]int)
	for _, j := range q.Joins {
		u, v := q.RelIndex(j.LeftAlias), q.RelIndex(j.RightAlias)
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("join references unknown alias %q/%q", j.LeftAlias, j.RightAlias)
		}
		if u == v {
			return nil, fmt.Errorf("self-join predicate on alias %q", j.LeftAlias)
		}
		// Normalise the predicate so LeftAlias corresponds to edge.U.
		if u > v {
			u, v = v, u
			j = Join{LeftAlias: j.RightAlias, LeftCol: j.RightCol, RightAlias: j.LeftAlias, RightCol: j.LeftCol}
		}
		key := [2]int{u, v}
		if ei, ok := byPair[key]; ok {
			g.Edges[ei].Preds = append(g.Edges[ei].Preds, j)
			continue
		}
		byPair[key] = len(g.Edges)
		g.Edges = append(g.Edges, Edge{U: u, V: v, Preds: []Join{j}})
	}
	if len(g.Edges) > 64 {
		return nil, fmt.Errorf("too many join edges (%d > 64)", len(g.Edges))
	}
	for ei, e := range g.Edges {
		g.neighbors[e.U] = g.neighbors[e.U].Add(e.V)
		g.neighbors[e.V] = g.neighbors[e.V].Add(e.U)
		g.incident[e.U] |= 1 << uint(ei)
		g.incident[e.V] |= 1 << uint(ei)
	}
	return g, nil
}

// MustBuildGraph is BuildGraph for statically known-good queries.
func MustBuildGraph(q *Query) *Graph {
	g, err := BuildGraph(q)
	if err != nil {
		panic(err)
	}
	return g
}

// NeighborsOf returns the neighbour set of one relation.
func (g *Graph) NeighborsOf(r int) BitSet { return g.neighbors[r] }

// IncidentTo returns the edges with relation r as an endpoint.
func (g *Graph) IncidentTo(r int) EdgeSet { return g.incident[r] }

// Neighborhood returns all relations outside s adjacent to some relation
// in s.
func (g *Graph) Neighborhood(s BitSet) BitSet {
	var nb BitSet
	s.ForEach(func(r int) { nb |= g.neighbors[r] })
	return nb.Minus(s)
}

// Connected reports whether the relations in s form a connected subgraph.
func (g *Graph) Connected(s BitSet) bool {
	if s.Empty() {
		return false
	}
	if s.Single() {
		return true
	}
	frontier := BitSet(1) << uint(s.First())
	reached := frontier
	for !frontier.Empty() {
		var next BitSet
		frontier.ForEach(func(r int) { next |= g.neighbors[r] })
		next = next.Intersect(s).Minus(reached)
		reached |= next
		frontier = next
	}
	return reached == s
}

// ConnectedPair reports whether at least one edge links s1 and s2.
func (g *Graph) ConnectedPair(s1, s2 BitSet) bool {
	return g.Neighborhood(s1).Overlaps(s2)
}

// touching returns the edges with at least one endpoint in s.
func (g *Graph) touching(s BitSet) EdgeSet {
	var es EdgeSet
	s.ForEach(func(r int) { es |= g.incident[r] })
	return es
}

// EdgesBetween returns the edges with one endpoint in s1 and the other in
// s2, for disjoint s1 and s2.
func (g *Graph) EdgesBetween(s1, s2 BitSet) EdgeSet {
	return g.touching(s1) & g.touching(s2)
}

// EdgesWithin returns the edges with both endpoints in s: those touching s
// less those that leave it. An edge inside s is incident to two of its
// relations, so the XOR of their incident sets drops it and keeps exactly
// the edges with one endpoint in s.
func (g *Graph) EdgesWithin(s BitSet) EdgeSet {
	var touch, leave EdgeSet
	s.ForEach(func(r int) {
		touch |= g.incident[r]
		leave ^= g.incident[r]
	})
	return touch &^ leave
}

// ConnectedSubsets enumerates every connected subset of the graph's
// relations in ascending cardinality order and calls f on each. For JOB-size
// graphs (n <= 17) the 2^n scan is instantaneous.
func (g *Graph) ConnectedSubsets(f func(s BitSet)) {
	full := uint64(1)<<uint(g.N) - 1
	byCount := make([][]BitSet, g.N+1)
	for raw := uint64(1); raw <= full; raw++ {
		s := BitSet(raw)
		if g.Connected(s) {
			byCount[s.Count()] = append(byCount[s.Count()], s)
		}
	}
	for _, list := range byCount[1:] {
		for _, s := range list {
			f(s)
		}
	}
}

// CountConnectedSubsets returns the number of connected subsets, a measure
// of optimizer search-space size.
func (g *Graph) CountConnectedSubsets() int {
	n := 0
	g.ConnectedSubsets(func(BitSet) { n++ })
	return n
}

// Dot renders the join graph in Graphviz dot syntax (cf. paper Fig. 2).
func (g *Graph) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", g.Q.ID)
	for _, r := range g.Q.Rels {
		fmt.Fprintf(&b, "  %s [label=%q];\n", r.Alias, r.Table+" "+r.Alias)
	}
	for _, e := range g.Edges {
		j := e.Preds[0]
		fmt.Fprintf(&b, "  %s -- %s [label=%q];\n", g.Q.Rels[e.U].Alias, g.Q.Rels[e.V].Alias,
			fmt.Sprintf("%s.%s = %s.%s", j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol))
	}
	b.WriteString("}\n")
	return b.String()
}
