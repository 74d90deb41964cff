// Package enum implements the plan-space enumeration algorithms of §6: one
// exhaustive dynamic program over connected subgraphs without cross products
// (csg-cmp pairs after Moerkotte & Neumann's DPccp), which also serves the
// shape-restricted spaces (left-deep / right-deep / zig-zag), the randomized
// QuickPick algorithm (and its best-of-1000 variant), and Greedy Operator
// Ordering (GOO). The tests keep an O(3^n) DPsub as the reference DP must
// match plan for plan.
package enum

import (
	"fmt"
	"math"
	"math/rand"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/index"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// Space bundles everything a plan enumeration needs: the join graph, a
// cardinality provider (estimates, injected values or truth), a cost model,
// the physical design, and engine-level rules (the §4.1 nested-loop switch
// and the §6.2 shape restriction). It is the one value that says how a
// query is planned: optimizer.Optimize adds the choice of algorithm, and
// reopt.Run re-plans on copies of it with observed cardinalities.
type Space struct {
	G     *query.Graph
	DB    *storage.Database
	Cards cardest.Provider
	Model costmodel.Model
	// Indexes is the physical design (§4.3): a join may use an
	// index-nested-loop join only into a relation whose join column has an
	// index here. Nil means no indexes.
	Indexes    *index.Set
	DisableNLJ bool
	Shape      plan.Shape

	// Set by prepared: the pricer, which holds each relation's unselected
	// size and width, and per relation the incident edges whose column on
	// that relation has an index (the index-nested-loop keys it offers).
	pricer *plan.Pricer
	inl    []query.EdgeSet
}

// prepared returns a copy of sp that holds what pricing needs of each
// relation, computed once per call of an enumeration algorithm; every
// algorithm starts with it. The caller's Space is not written, so one Space
// may be shared across goroutines.
func (sp *Space) prepared() *Space {
	c := *sp
	c.pricer = plan.NewPricer(sp.G, sp.DB, sp.Cards, sp.Model)
	c.inl = make([]query.EdgeSet, sp.G.N)
	if sp.Indexes != nil {
		for ei, e := range sp.G.Edges {
			for _, r := range [2]int{e.U, e.V} {
				if sp.Indexes.Has(sp.G.Q.Rels[r].Table, e.ColFor(sp.G.Q, r)) {
					c.inl[r] = c.inl[r].Add(ei)
				}
			}
		}
	}
	return &c
}

// leafFor builds an annotated scan node.
func (sp *Space) leafFor(r int) *plan.Node {
	n := plan.Leaf(r)
	n.ECard = sp.Cards.Card(n.S)
	n.ECost = sp.pricer.Scan(r)
	return n
}

// joinOf builds the cheapest join of (left, right) in this orientation, or
// nil if the shape restriction or available algorithms rule it out. Both
// orientations must be tried by the caller.
func (sp *Space) joinOf(left, right *plan.Node) *plan.Node {
	edges := sp.G.EdgesBetween(left.S, right.S)
	if !sp.Shape.Allows(left, right) || edges == 0 {
		return nil
	}
	out := sp.Cards.Card(left.S.Union(right.S))
	cost, algo, ok := sp.price(left, right, edges, out)
	if !ok {
		return nil
	}
	n := join(left, right, edges, nil, out, cost, algo)
	return &n
}

// price returns the cheapest algorithm, and its total cost, for joining
// left and right in this orientation over the non-empty edge set edges into
// out rows; ok is false if no algorithm applies. A later algorithm replaces
// an earlier one only if strictly cheaper. Index-nested-loop needs a leaf
// inner with an index on the inner's column of the lowest edge, the key
// plan.Node.RightKeyColumn reads back from the built node.
//
// There is no sort-merge join to try: under every model its cost is strictly
// above the hash join's for the same inputs (costmodel.Model's
// SortMergeJoinCost says why, and the costmodel tests check it), and
// adding the same children's costs to both keeps that order, so it could
// never beat the hash join tried first.
func (sp *Space) price(left, right *plan.Node, edges query.EdgeSet, out float64) (cost float64, algo plan.JoinAlgo, ok bool) {
	l := plan.Priced{S: left.S, Card: left.ECard, Cost: left.ECost}
	r := plan.Priced{S: right.S, Card: right.ECard, Cost: right.ECost}
	cost = math.Inf(1)
	try := func(a plan.JoinAlgo) {
		if c := sp.pricer.Join(a, l, r, out); c < cost {
			cost, algo, ok = c, a, true
		}
	}

	try(plan.HashJoin)
	if !sp.DisableNLJ {
		try(plan.NestedLoopJoin)
	}
	if right.IsLeaf() && sp.inl[right.Rel].Has(edges.First()) {
		try(plan.IndexNLJoin)
	}
	return cost, algo, ok
}

// join returns the join node price chose, its edge indexes appended to
// idxs.
func join(left, right *plan.Node, edges query.EdgeSet, idxs []int, out, cost float64, algo plan.JoinAlgo) plan.Node {
	return plan.Node{
		S: left.S.Union(right.S), Rel: -1, Algo: algo, Left: left, Right: right,
		EdgeIdxs: edges.AppendTo(idxs), ECard: out, ECost: cost,
	}
}

// emit offers the csg-cmp pair (s1, s2) to the DP table in both
// orientations. The union's cardinality is asked of the provider once per
// set: once the set has a plan, its ECard is that answer. Each set gets one
// node: a later pair or orientation that beats it overwrites it in place,
// reusing its EdgeIdxs array. That is safe because DP emits the pairs in
// ascending order of union size, so every pair whose union is s is emitted
// before any larger set is joined, and no node holds a pointer to s's node
// while it may still change.
func (sp *Space) emit(table map[query.BitSet]*plan.Node, s1, s2 query.BitSet) {
	l, r := table[s1], table[s2]
	edges := sp.G.EdgesBetween(s1, s2)
	if l == nil || r == nil || edges == 0 {
		return
	}
	s := s1.Union(s2)
	cur := table[s]
	var out float64
	known := cur != nil
	if known {
		out = cur.ECard
	}
	for _, lr := range [2][2]*plan.Node{{l, r}, {r, l}} {
		left, right := lr[0], lr[1]
		if !sp.Shape.Allows(left, right) {
			continue
		}
		if !known {
			out, known = sp.Cards.Card(s), true
		}
		cost, algo, ok := sp.price(left, right, edges, out)
		if !ok || !beats(cost, left.S, right.S, cur) {
			continue
		}
		if cur == nil {
			cur = new(plan.Node)
			table[s] = cur
		}
		*cur = join(left, right, edges, cur.EdgeIdxs[:0], out, cost, algo)
	}
}

// beats reports whether a join of left and right costing cost should
// replace cur, the best plan so far for the same relation set. A strictly
// cheaper plan wins. Exactly equal costs are broken by the split, so the
// winner does not depend on the order pairs are emitted in: the plan whose
// numerically smaller half lo is larger wins, and at equal lo the plan with
// lo on the left. That is the first plan in DPsub's visit order
// (descending subsets, lower half joined on the left first), which the
// tests keep as the reference.
func beats(cost float64, left, right query.BitSet, cur *plan.Node) bool {
	if cur == nil {
		return true
	}
	if cost != cur.ECost {
		return cost < cur.ECost
	}
	nlo, clo := min(left, right), min(cur.Left.S, cur.Right.S)
	if nlo != clo {
		return nlo > clo
	}
	return left == nlo && cur.Left.S != clo
}

// DP is the exhaustive dynamic program over connected subgraphs without
// cross products. It enumerates every csg-cmp pair (a connected set and a
// connected, edge-linked set of its complement) once, after Moerkotte and
// Neumann's DPccp, fills the table in ascending order of the pair's union
// size so both halves are final when they are joined, and returns the
// optimal plan for the full query under the space's provider, model and
// shape restriction.
func DP(sp *Space) (*plan.Node, error) {
	sp = sp.prepared()
	g := sp.G
	table := make(map[query.BitSet]*plan.Node, 4*g.N)
	for r := 0; r < g.N; r++ {
		table[query.Bit(r)] = sp.leafFor(r)
	}

	// Bucket the pairs by union size: the enumeration order can join a set
	// before all of its subsets have their final plans. Within a bucket the
	// order does not matter, since beats picks the same winner in any order.
	type pair struct{ s1, s2 query.BitSet }
	bySize := make([][]pair, g.N+1)
	enumerateCsgCmpPairs(g, func(s1, s2 query.BitSet) {
		c := s1.Union(s2).Count()
		bySize[c] = append(bySize[c], pair{s1, s2})
	})
	for _, list := range bySize {
		for _, p := range list {
			sp.emit(table, p.s1, p.s2)
		}
	}

	n := table[query.FullSet(g.N)]
	if n == nil {
		return nil, fmt.Errorf("enum: no plan for %s (shape %v too restrictive?)", g.Q.ID, sp.Shape)
	}
	return n, nil
}

// enumerateCsgCmpPairs implements the canonical Moerkotte/Neumann csg-cmp
// enumeration: every connected subgraph S1 is paired with every connected
// subgraph S2 of its complement that is reachable through at least one edge;
// each unordered pair is emitted exactly once.
func enumerateCsgCmpPairs(g *query.Graph, emit func(s1, s2 query.BitSet)) {
	for i := g.N - 1; i >= 0; i-- {
		v := query.Bit(i)
		emitCsg(g, v, emit)
		enumerateCsgRec(g, v, lowSet(i+1), emit)
	}
}

// lowSet returns {0, .., i-1}.
func lowSet(i int) query.BitSet { return query.BitSet(1)<<uint(i) - 1 }

// enumerateCsgRec grows the connected subgraph S by non-empty subsets of its
// neighbourhood excluding X, emitting each grown csg's complements first.
func enumerateCsgRec(g *query.Graph, s, x query.BitSet, emit func(s1, s2 query.BitSet)) {
	n := g.Neighborhood(s).Minus(x)
	if n.Empty() {
		return
	}
	for sub := n; sub != 0; sub = nextSubset(sub, n) {
		emitCsg(g, s.Union(sub), emit)
	}
	for sub := n; sub != 0; sub = nextSubset(sub, n) {
		enumerateCsgRec(g, s.Union(sub), x.Union(n), emit)
	}
}

// emitCsg enumerates all connected complements of the csg S1.
func emitCsg(g *query.Graph, s1 query.BitSet, emit func(a, b query.BitSet)) {
	x := s1.Union(lowSet(s1.First() + 1)) // B_min(S1) ∪ S1
	n := g.Neighborhood(s1).Minus(x)
	if n.Empty() {
		return
	}
	for v := g.N - 1; v >= 0; v-- {
		if !n.Has(v) {
			continue
		}
		s2 := query.Bit(v)
		emit(s1, s2)
		// Grow S2 within the complement, excluding smaller neighbours of
		// S1 (B_v ∩ N) which later iterations of this loop handle.
		enumerateCmpRec(g, s1, s2, x.Union(n.Intersect(lowSet(v+1))), emit)
	}
}

func enumerateCmpRec(g *query.Graph, s1, s2, x query.BitSet, emit func(a, b query.BitSet)) {
	n := g.Neighborhood(s2).Minus(x)
	if n.Empty() {
		return
	}
	for sub := n; sub != 0; sub = nextSubset(sub, n) {
		emit(s1, s2.Union(sub))
	}
	for sub := n; sub != 0; sub = nextSubset(sub, n) {
		enumerateCmpRec(g, s1, s2.Union(sub), x.Union(n), emit)
	}
}

// nextSubset steps through the non-empty subsets of s in descending order:
// starting from sub = s, it returns the next smaller subset, 0 after the
// last.
func nextSubset(sub, s query.BitSet) query.BitSet { return (sub - 1) & s }

// QuickPick builds one random cross-product-free plan by picking join edges
// uniformly at random until all relations are connected (§6.1, [40]). Join
// algorithms are chosen cheapest-first per join.
func QuickPick(sp *Space, rng *rand.Rand) (*plan.Node, error) {
	sp = sp.prepared()
	return quickPickFrom(sp, rng, sp.leaves())
}

// leaves builds the annotated scan node of every relation once; leaf nodes
// are immutable (joins allocate fresh nodes), so repeated QuickPick runs
// share them instead of re-deriving cardinalities and scan costs per run.
func (sp *Space) leaves() []*plan.Node {
	ls := make([]*plan.Node, sp.G.N)
	for r := range ls {
		ls[r] = sp.leafFor(r)
	}
	return ls
}

func quickPickFrom(sp *Space, rng *rand.Rand, leaves []*plan.Node) (*plan.Node, error) {
	g := sp.G
	comp := make([]*plan.Node, g.N) // component plan per relation (by root)
	find := make([]int, g.N)
	for r := 0; r < g.N; r++ {
		comp[r] = leaves[r]
		find[r] = r
	}
	root := func(r int) int {
		for find[r] != r {
			r = find[r]
		}
		return r
	}
	remaining := g.N
	edgeOrder := rng.Perm(len(g.Edges))
	// A random permutation of edges yields a random spanning sequence; we
	// re-shuffle through the permutation until connected.
	for _, ei := range edgeOrder {
		if remaining == 1 {
			break
		}
		e := g.Edges[ei]
		ru, rv := root(e.U), root(e.V)
		if ru == rv {
			continue
		}
		l, r := comp[ru], comp[rv]
		// Random orientation, cheapest algorithm.
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		n := sp.joinOf(l, r)
		if n == nil {
			n = sp.joinOf(r, l)
		}
		if n == nil {
			return nil, fmt.Errorf("enum: quickpick could not join %v and %v", l.S, r.S)
		}
		find[ru] = rv
		comp[rv] = n
		remaining--
	}
	if remaining != 1 {
		return nil, fmt.Errorf("enum: quickpick did not connect %s", g.Q.ID)
	}
	return comp[root(0)], nil
}

// QuickPickBest runs QuickPick k times and keeps the cheapest plan under the
// space's own (estimated) costs — the paper's "QuickPick-1000" heuristic.
// Leaf construction is hoisted out of the loop: all k runs share one set of
// annotated scan nodes.
func QuickPickBest(sp *Space, k int, seed int64) (*plan.Node, error) {
	sp = sp.prepared()
	rng := rand.New(rand.NewSource(seed))
	leaves := sp.leaves()
	var best *plan.Node
	for i := 0; i < k; i++ {
		n, err := quickPickFrom(sp, rng, leaves)
		if err != nil {
			return nil, err
		}
		if best == nil || n.ECost < best.ECost {
			best = n
		}
	}
	return best, nil
}

// GOO is Greedy Operator Ordering [11]: start from one join tree per base
// relation and repeatedly combine the connected pair whose join result has
// the smallest estimated cardinality (ties broken by cost), producing a
// bushy plan in O(n^3) combines.
func GOO(sp *Space) (*plan.Node, error) {
	sp = sp.prepared()
	g := sp.G
	var trees []*plan.Node
	for r := 0; r < g.N; r++ {
		trees = append(trees, sp.leafFor(r))
	}
	for len(trees) > 1 {
		bestI, bestJ := -1, -1
		bestCard := math.Inf(1)
		bestCost := math.Inf(1)
		var bestNode *plan.Node
		for i := 0; i < len(trees); i++ {
			for j := i + 1; j < len(trees); j++ {
				if !g.ConnectedPair(trees[i].S, trees[j].S) {
					continue
				}
				card := sp.Cards.Card(trees[i].S.Union(trees[j].S))
				if card > bestCard {
					continue
				}
				n := sp.joinOf(trees[i], trees[j])
				if m := sp.joinOf(trees[j], trees[i]); m != nil && (n == nil || m.ECost < n.ECost) {
					n = m
				}
				if n == nil {
					continue
				}
				if card < bestCard || n.ECost < bestCost {
					bestCard, bestCost, bestI, bestJ, bestNode = card, n.ECost, i, j, n
				}
			}
		}
		if bestNode == nil {
			return nil, fmt.Errorf("enum: GOO stuck on %s", g.Q.ID)
		}
		trees[bestI] = bestNode
		trees = append(trees[:bestJ], trees[bestJ+1:]...)
	}
	return trees[0], nil
}
