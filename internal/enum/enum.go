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
	"math/bits"
	"math/rand"
	"slices"
	"sync"

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

// leaf returns the annotated scan node of relation r.
func (sp *Space) leaf(r int) plan.Node {
	s := query.Bit(r)
	return plan.Node{S: s, Rel: r, ECard: sp.Cards.Card(s), ECost: sp.pricer.Scan(r)}
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
	return &plan.Node{
		S: left.S.Union(right.S), Rel: -1, Algo: algo, Left: left, Right: right,
		EdgeIdxs: edges.Elems(), ECard: out, ECost: cost,
	}
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

// pair is one csg-cmp pair: two disjoint connected sets linked by an edge.
type pair struct{ s1, s2 query.BitSet }

// entry is the DP table's slot for one connected relation set: the set's
// best plan so far, held by value, and touch, the edges with at least one
// endpoint in the set. Two disjoint sets are joined over exactly the edges
// both touch, so a pair's edges are the AND of its halves' masks and a
// union's mask is their OR; no pair scans the graph's edges.
type entry struct {
	node  plan.Node
	touch query.EdgeSet
}

// work is the memory one DP call plans in: the csg-cmp pairs in enumeration
// order and sorted by union size, an open-addressed table from relation set
// to entry index, and the entries. A call takes one from workPool and puts
// it back when done; no plan DP returns points into it, because DP copies
// the chosen tree out. The pairs are rebuilt per call rather than cached
// per graph: the 113 JOB graphs hold 240 143 csg-cmp pairs, about 5.5 MiB
// at 24 B per pair with its edge mask, more than the whole live heap of a
// process that plans all of them.
type work struct {
	pairs, sorted []pair
	keys          []query.BitSet // 0 marks an empty slot; sets are non-empty
	idx           []int32        // entry index of the set in keys[i]
	shift         uint           // 64 - log2(len(keys))
	entries       []entry
}

var workPool = sync.Pool{New: func() any { return new(work) }}

// sortBySize fills w.sorted with w.pairs in ascending order of union size,
// by a stable counting sort, so pairs of one size keep their enumeration
// order.
func (w *work) sortBySize() {
	var next [64]int // a union has at most 63 relations
	for _, p := range w.pairs {
		next[p.s1.Union(p.s2).Count()]++
	}
	at := 0
	for c, k := range next {
		next[c], at = at, at+k
	}
	w.sorted = slices.Grow(w.sorted[:0], len(w.pairs))[:len(w.pairs)]
	for _, p := range w.pairs {
		c := p.s1.Union(p.s2).Count()
		w.sorted[next[c]] = p
		next[c]++
	}
}

// reset empties the table and sizes it for sets relation sets: a power of
// two at least twice that many slots, so linear probes stay short, and room
// for sets entries, so adding one never moves those working nodes point to.
func (w *work) reset(sets int) {
	logSize := bits.Len(uint(2*sets - 1))
	w.keys = slices.Grow(w.keys[:0], 1<<logSize)[:1<<logSize]
	clear(w.keys)
	w.idx = slices.Grow(w.idx[:0], 1<<logSize)[:1<<logSize]
	w.shift = 64 - uint(logSize)
	w.entries = slices.Grow(w.entries[:0], sets)
}

// slot returns the index in w.keys that holds s, or else the empty slot
// where s belongs: a multiplicative hash, then a linear probe.
func (w *work) slot(s query.BitSet) int {
	mask := len(w.keys) - 1
	i := int(uint64(s) * 0x9E3779B97F4A7C15 >> w.shift)
	for w.keys[i] != s && w.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// at returns the entry of the set in slot i, or nil if the slot is empty.
func (w *work) at(i int) *entry {
	if w.keys[i] == 0 {
		return nil
	}
	return &w.entries[w.idx[i]]
}

// add puts s into the empty slot i with a zero entry and returns the entry.
func (w *work) add(i int, s query.BitSet) *entry {
	if len(w.entries) == cap(w.entries) {
		panic("enum: more relation sets than the enumeration counted")
	}
	w.keys[i], w.idx[i] = s, int32(len(w.entries))
	w.entries = append(w.entries, entry{})
	return &w.entries[len(w.entries)-1]
}

// emit offers the csg-cmp pair p to the DP table in both orientations. The
// union's cardinality is asked of the provider once per set: once the set
// has a plan, its ECard is that answer. Each set gets one entry: a later
// pair or orientation that beats its plan overwrites the node in place.
// That is safe because DP emits the pairs in ascending order of union size,
// so every pair whose union is s is emitted before any larger set is
// joined, and no node points to s's node while it may still change.
func (sp *Space) emit(w *work, p pair) {
	l, r := w.at(w.slot(p.s1)), w.at(w.slot(p.s2))
	if l == nil || r == nil {
		return
	}
	edges := l.touch & r.touch // non-empty: the halves of a pair are linked
	s := p.s1.Union(p.s2)
	i := w.slot(s)
	cur := w.at(i)
	var best *plan.Node
	var out float64
	if cur != nil {
		best, out = &cur.node, cur.node.ECard
	}
	known := cur != nil
	for _, lr := range [2][2]*plan.Node{{&l.node, &r.node}, {&r.node, &l.node}} {
		left, right := lr[0], lr[1]
		if !sp.Shape.Allows(left, right) {
			continue
		}
		if !known {
			out, known = sp.Cards.Card(s), true
		}
		cost, algo, ok := sp.price(left, right, edges, out)
		if !ok || !beats(cost, left.S, right.S, best) {
			continue
		}
		if cur == nil {
			cur = w.add(i, s)
			cur.touch = l.touch | r.touch
			best = &cur.node
		}
		cur.node = plan.Node{S: s, Rel: -1, Algo: algo, Left: left, Right: right, ECard: out, ECost: cost}
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
//
// All of a call's working memory is one work value from a pool, sized from
// the enumeration's count of connected sets, and the working nodes carry no
// edge lists. Only the chosen tree is copied out, so the returned plan owns
// its memory and keeps none of the other sets' plans alive.
func DP(sp *Space) (*plan.Node, error) {
	sp = sp.prepared()
	g := sp.G
	w := workPool.Get().(*work)
	defer workPool.Put(w)

	// Sort the pairs by union size: the enumeration order can join a set
	// before all of its subsets have their final plans. Within a size the
	// order does not matter, since beats picks the same winner in any order.
	var sets int
	w.pairs, sets = enumerateCsgCmpPairs(g, w.pairs[:0])
	w.sortBySize()
	w.reset(sets)
	for r := 0; r < g.N; r++ {
		s := query.Bit(r)
		w.add(w.slot(s), s).node = sp.leaf(r)
	}
	for ei, e := range g.Edges { // entries[r] is relation r's leaf
		w.entries[e.U].touch = w.entries[e.U].touch.Add(ei)
		w.entries[e.V].touch = w.entries[e.V].touch.Add(ei)
	}
	for _, p := range w.sorted {
		sp.emit(w, p)
	}

	root := w.at(w.slot(query.FullSet(g.N)))
	if root == nil {
		return nil, fmt.Errorf("enum: no plan for %s (shape %v too restrictive?)", g.Q.ID, sp.Shape)
	}
	c := treeCopy{g: g, nodes: make([]plan.Node, 0, 2*g.N-1), idxs: make([]int, 0, len(g.Edges))}
	return c.node(&root.node), nil
}

// treeCopy copies a plan out of DP's working set: its 2N−1 nodes into one
// slice and their edge lists into one slice of len(g.Edges), which is
// enough because each edge links its endpoints at exactly one join.
type treeCopy struct {
	g     *query.Graph
	nodes []plan.Node
	idxs  []int
}

// node copies n and its subtree and returns the copy.
func (c *treeCopy) node(n *plan.Node) *plan.Node {
	c.nodes = append(c.nodes, *n)
	out := &c.nodes[len(c.nodes)-1]
	if !n.IsLeaf() {
		from := len(c.idxs)
		c.idxs = c.g.EdgesBetween(n.Left.S, n.Right.S).AppendTo(c.idxs)
		out.EdgeIdxs = c.idxs[from:len(c.idxs):len(c.idxs)]
		out.Left, out.Right = c.node(n.Left), c.node(n.Right)
	}
	return out
}

// enumerateCsgCmpPairs implements the canonical Moerkotte/Neumann csg-cmp
// enumeration: every connected subgraph S1 is paired with every connected
// subgraph S2 of its complement that is reachable through at least one edge;
// each unordered pair is appended to pairs exactly once. It also returns
// how many connected subgraphs it visited: each is visited once as an S1,
// so that is g.CountConnectedSubsets(), the number of sets DP can plan.
func enumerateCsgCmpPairs(g *query.Graph, pairs []pair) ([]pair, int) {
	e := csgCmp{g: g, pairs: pairs}
	for i := g.N - 1; i >= 0; i-- {
		v := query.Bit(i)
		e.emitCsg(v)
		e.enumerateCsgRec(v, lowSet(i+1))
	}
	return e.pairs, e.sets
}

// csgCmp is the enumeration's state: the graph, the pairs so far and the
// number of connected subgraphs visited.
type csgCmp struct {
	g     *query.Graph
	pairs []pair
	sets  int
}

// lowSet returns {0, .., i-1}.
func lowSet(i int) query.BitSet { return query.BitSet(1)<<uint(i) - 1 }

// enumerateCsgRec grows the connected subgraph S by non-empty subsets of its
// neighbourhood excluding X, emitting each grown csg's complements first.
func (e *csgCmp) enumerateCsgRec(s, x query.BitSet) {
	n := e.g.Neighborhood(s).Minus(x)
	if n.Empty() {
		return
	}
	for sub := n; sub != 0; sub = nextSubset(sub, n) {
		e.emitCsg(s.Union(sub))
	}
	for sub := n; sub != 0; sub = nextSubset(sub, n) {
		e.enumerateCsgRec(s.Union(sub), x.Union(n))
	}
}

// emitCsg counts the csg S1 and enumerates all its connected complements.
func (e *csgCmp) emitCsg(s1 query.BitSet) {
	e.sets++
	x := s1.Union(lowSet(s1.First() + 1)) // B_min(S1) ∪ S1
	n := e.g.Neighborhood(s1).Minus(x)
	if n.Empty() {
		return
	}
	for v := e.g.N - 1; v >= 0; v-- {
		if !n.Has(v) {
			continue
		}
		s2 := query.Bit(v)
		e.pairs = append(e.pairs, pair{s1, s2})
		// Grow S2 within the complement, excluding smaller neighbours of
		// S1 (B_v ∩ N) which later iterations of this loop handle.
		e.enumerateCmpRec(s1, s2, x.Union(n.Intersect(lowSet(v+1))))
	}
}

func (e *csgCmp) enumerateCmpRec(s1, s2, x query.BitSet) {
	n := e.g.Neighborhood(s2).Minus(x)
	if n.Empty() {
		return
	}
	for sub := n; sub != 0; sub = nextSubset(sub, n) {
		e.pairs = append(e.pairs, pair{s1, s2.Union(sub)})
	}
	for sub := n; sub != 0; sub = nextSubset(sub, n) {
		e.enumerateCmpRec(s1, s2.Union(sub), x.Union(n))
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
	nodes := make([]plan.Node, sp.G.N)
	ls := make([]*plan.Node, sp.G.N)
	for r := range ls {
		nodes[r] = sp.leaf(r)
		ls[r] = &nodes[r]
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
	trees := sp.leaves()
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
