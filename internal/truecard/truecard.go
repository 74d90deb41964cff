// Package truecard computes the true cardinality of every intermediate
// result of a query: for each connected subgraph S of the join graph, the
// exact number of result tuples of joining the relations in S with all base-
// table selections applied. This replicates the paper's §2.4 methodology
// (SELECT COUNT(*) for every subexpression), including the additional
// "index intermediates": |S ⋈ R| with R's selection *discarded*, which
// index-nested-loop costing needs because the filter applies only after the
// index lookups.
//
// The computation is a level-wise dynamic program: results of size k are
// materialised as row-id tuples by probing a size-(k-1) result into a hash
// table of the extending relation; only two levels are kept in memory. A
// result of S keeps the row-id column of a relation only if that relation
// has a neighbour outside S, since no other column is ever probed; a
// result nothing reads (the full set, and every subgraph at the MaxSize
// level) keeps no column and is only counted. Row-id buffers are pooled
// and outlive one Compute. Within a level all size-k subgraphs depend only
// on level k-1, so they fan out across Options.Parallel workers; results
// are identical to the serial path at any worker count.
package truecard

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"jobench/internal/hashtab"
	"jobench/internal/parallel"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// DefaultMaxRows is the intermediate-result row limit applied when
// Options.MaxRows is zero. Callers that surface the limit in error
// messages (the jobench facade, the experiments lab) reference this
// constant instead of restating the number.
const DefaultMaxRows = 50_000_000

// Options control the computation.
type Options struct {
	// MaxSize limits the subgraph size (number of relations); 0 computes
	// every connected subgraph. The estimation-quality experiments only
	// need subexpressions of up to 7 relations (0-6 joins).
	MaxSize int
	// MaxRows aborts if an intermediate result exceeds this many tuples
	// (guards against misconfigured scales). 0 means DefaultMaxRows.
	// Sans-selection counts, which are never materialised, are bounded at
	// SansRowsFactor times this limit rather than left unbounded.
	MaxRows int
	// Parallel is the worker-pool size for the per-level fan-out (the
	// base-table filter scans and the independent size-k subgraphs of each
	// DP level). 0 means GOMAXPROCS; 1 runs fully serial. The computed
	// store is identical at any setting.
	Parallel int
}

// Store holds the computed cardinalities of one query.
type Store struct {
	G *query.Graph

	cards map[query.BitSet]float64
	sans  map[sansKey]float64
	// maxSize is the largest subgraph size computed.
	maxSize int
}

type sansKey struct {
	s query.BitSet
	r int
}

// Card returns the true cardinality of the connected subgraph s, and whether
// it was computed.
func (st *Store) Card(s query.BitSet) (float64, bool) {
	v, ok := st.cards[s]
	return v, ok
}

// SansSelection returns |join of s with relation r's selection discarded|.
// For relations without predicates this equals Card(s); for a single
// filtered relation the stored value is its base table's row count.
func (st *Store) SansSelection(s query.BitSet, r int) (float64, bool) {
	if len(st.G.Q.Rels[r].Preds) == 0 {
		return st.Card(s)
	}
	v, ok := st.sans[sansKey{s, r}]
	return v, ok
}

// MaxSize returns the largest subgraph size computed.
func (st *Store) MaxSize() int { return st.maxSize }

// CardEntry is one (connected subgraph, true cardinality) pair of a Dump.
type CardEntry struct {
	S    query.BitSet
	Card float64
}

// SansEntry is one sans-selection cardinality of a Dump: |join of S with
// relation Rel's selection discarded|.
type SansEntry struct {
	S    query.BitSet
	Rel  int
	Card float64
}

// Dump is the portable content of a Store: everything a snapshot needs to
// rebuild it against the same join graph. Entries are sorted (cards by
// subgraph, sans by subgraph then relation) so encoding a Dump is
// deterministic.
type Dump struct {
	MaxSize int
	Cards   []CardEntry
	Sans    []SansEntry
}

// Dump extracts the store's content in deterministic order.
func (st *Store) Dump() Dump {
	d := Dump{
		MaxSize: st.maxSize,
		Cards:   make([]CardEntry, 0, len(st.cards)),
		Sans:    make([]SansEntry, 0, len(st.sans)),
	}
	for s, v := range st.cards {
		d.Cards = append(d.Cards, CardEntry{S: s, Card: v})
	}
	sort.Slice(d.Cards, func(i, j int) bool { return d.Cards[i].S < d.Cards[j].S })
	for k, v := range st.sans {
		d.Sans = append(d.Sans, SansEntry{S: k.s, Rel: k.r, Card: v})
	}
	sort.Slice(d.Sans, func(i, j int) bool {
		if d.Sans[i].S != d.Sans[j].S {
			return d.Sans[i].S < d.Sans[j].S
		}
		return d.Sans[i].Rel < d.Sans[j].Rel
	})
	return d
}

// FromDump rebuilds a Store for graph g from a Dump, validating that every
// entry fits the graph (decoders feed it untrusted input): subgraphs must
// be non-empty subsets of g's relations, a sans relation must belong to its
// subgraph, every cardinality must be finite and non-negative, and MaxSize
// must lie within [1, g.N].
func FromDump(g *query.Graph, d Dump) (*Store, error) {
	if d.MaxSize < 1 || d.MaxSize > g.N {
		return nil, fmt.Errorf("truecard: dump max size %d outside [1,%d]", d.MaxSize, g.N)
	}
	full := query.FullSet(g.N)
	check := func(s query.BitSet, card float64) error {
		if s.Empty() || !full.Contains(s) {
			return fmt.Errorf("truecard: dump subgraph %v outside %d-relation graph", s, g.N)
		}
		if !(card >= 0) || math.IsInf(card, 1) {
			return fmt.Errorf("truecard: dump cardinality %g of %v is not a finite count", card, s)
		}
		return nil
	}
	st := &Store{
		G:       g,
		cards:   make(map[query.BitSet]float64, len(d.Cards)),
		sans:    make(map[sansKey]float64, len(d.Sans)),
		maxSize: d.MaxSize,
	}
	for _, e := range d.Cards {
		if err := check(e.S, e.Card); err != nil {
			return nil, err
		}
		st.cards[e.S] = e.Card
	}
	for _, e := range d.Sans {
		if err := check(e.S, e.Card); err != nil {
			return nil, err
		}
		if !e.S.Has(e.Rel) { // false for any Rel outside [0,64) too
			return nil, fmt.Errorf("truecard: dump sans relation %d outside subgraph %v", e.Rel, e.S)
		}
		st.sans[sansKey{e.S, e.Rel}] = e.Card
	}
	return st, nil
}

// NumSubgraphs returns the number of connected subgraphs computed.
func (st *Store) NumSubgraphs() int { return len(st.cards) }

// result is an intermediate of the DP: its row count and, for the relations
// a superset probes, one base-table row id per tuple. Column-major:
// cols[k][i] is the row of the k-th relation of rels (ascending) in tuple i.
// A result no superset reads keeps no column and is only counted.
type result struct {
	n    int
	rels query.BitSet
	cols [][]int32
}

func (r *result) colOf(rel int) []int32 {
	if !r.rels.Has(rel) {
		panic(fmt.Sprintf("truecard: relation %d not kept in result %v", rel, r.rels))
	}
	return r.cols[bits.OnesCount64(uint64(r.rels)&(1<<uint(rel)-1))]
}

// probed returns the relations of subgraph s whose columns a later level
// reads: those with a neighbour outside s, and none at the last level.
// The full set never keeps a column.
func (c *computer) probed(s query.BitSet, maxSize int) query.BitSet {
	if s.Count() >= maxSize {
		return 0
	}
	var keep query.BitSet
	for t := s; t != 0; t &= t - 1 {
		if x := t.First(); c.g.NeighborsOf(x)&^s != 0 {
			keep = keep.Add(x)
		}
	}
	return keep
}

// computer bundles the per-query state.
type computer struct {
	db   *storage.Database
	g    *query.Graph
	opts Options

	tables   []*storage.Table // per relation
	filters  []*query.Filter  // compiled selections per relation
	filtered [][]int32        // selected row ids per relation

	// Join hashes per (relation, column, filtered?) — flat grouped
	// postings, not map[int64][]int32 — are built lazily with per-key
	// once-semantics, so concurrent workers extending different subgraphs
	// by the same relation share one build instead of racing.
	hashes parallel.KeyedOnce[hashKey, *hashtab.Postings]

	// bufs recycles buffers within the query and across queries: once
	// level k is materialised, level k-1's columns are dead and their
	// backing arrays feed level k+1, and when Compute returns the largest
	// stay pooled for the next one.
	bufs *buffers
}

// buffers is the pooled state a computer borrows for one Compute: row-id
// columns and the int64 key staging of the hash builds. Workers get and
// put concurrently.
type buffers struct {
	rows freeList[int32]
	keys freeList[int64]
}

// bufferPool carries buffers from one Compute to the next, like the
// engine's runner pool. The GC drains a sync.Pool, so an idle process
// keeps none of them.
var bufferPool = sync.Pool{New: func() any { return new(buffers) }}

// Retention bounds what a Compute hands back to bufferPool: the largest
// retainRows row-id buffers and retainKeys key buffers.
const (
	retainRows = 256
	retainKeys = 8
)

// freeList holds spare buffers in power-of-two size classes: classes[k]
// holds buffers whose capacity lies in [2^k, 2^(k+1)).
type freeList[T int32 | int64] struct {
	mu      sync.Mutex
	classes [64][][]T
}

// get returns an empty buffer with capacity for at least n elements: a
// spare from the smallest class that is sure to fit (or the next one up),
// else a new one rounded up to a power of two so that it fits that class
// when it comes back.
func (f *freeList[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // smallest k with 2^k >= n
	f.mu.Lock()
	for c := k; c <= k+1 && c < len(f.classes); c++ {
		if m := len(f.classes[c]); m > 0 {
			b := f.classes[c][m-1]
			f.classes[c][m-1] = nil
			f.classes[c] = f.classes[c][:m-1]
			f.mu.Unlock()
			return b
		}
	}
	f.mu.Unlock()
	return make([]T, 0, 1<<k)
}

// put returns a buffer to its size class.
func (f *freeList[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	k := bits.Len(uint(cap(b))) - 1
	f.mu.Lock()
	f.classes[k] = append(f.classes[k], b[:0])
	f.mu.Unlock()
}

// trim keeps the keep largest buffers and drops the rest.
func (f *freeList[T]) trim(keep int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k := len(f.classes) - 1; k >= 0; k-- {
		cl := f.classes[k]
		n := min(keep, len(cl))
		clear(cl[n:])
		f.classes[k] = cl[:n]
		keep -= n
	}
}

// grow moves b to a pooled buffer with room for k more elements; callers
// check first that b has none (a call is not inlined).
func (c *computer) grow(b []int32, k int) []int32 {
	nb := append(c.bufs.rows.get(max(2*cap(b), len(b)+k)), b...)
	c.bufs.rows.put(b)
	return nb
}

// recycle returns a dead result's columns to the buffer pool.
func (c *computer) recycle(r *result) {
	for _, col := range r.cols {
		c.bufs.rows.put(col)
	}
	r.cols = nil
}

type hashKey struct {
	rel      int
	col      string
	filtered bool
}

// subsetOut is one DP worker's output for a size-k subgraph: the
// materialised result, its cardinality, and the sans-selection counts of
// every filtered extension relation (ascending).
type subsetOut struct {
	res  *result
	card float64
	sans []sansPair
}

type sansPair struct {
	r int
	n float64
}

// Compute runs the DP for one query over db, fanning the independent
// per-subset work of each level across Options.Parallel workers.
func Compute(db *storage.Database, g *query.Graph, opts Options) (*Store, error) {
	return ComputeContext(context.Background(), db, g, opts)
}

// ComputeContext is Compute with cancellation: the probe loops poll ctx,
// so a caller sweeping many queries (Warmup) can abort the in-flight DPs
// as soon as a sibling query fails instead of letting them run out.
func ComputeContext(ctx context.Context, db *storage.Database, g *query.Graph, opts Options) (*Store, error) {
	if opts.MaxRows <= 0 {
		opts.MaxRows = DefaultMaxRows
	}
	maxSize := g.N
	if opts.MaxSize > 0 && opts.MaxSize < maxSize {
		maxSize = opts.MaxSize
	}
	c := &computer{db: db, g: g, opts: opts, bufs: bufferPool.Get().(*buffers)}
	defer c.release()
	// Group connected subsets by size; those up to maxSize are the store's
	// cards.
	bySize := make([][]query.BitSet, g.N+1)
	subgraphs := 0
	g.ConnectedSubsets(func(s query.BitSet) {
		bySize[s.Count()] = append(bySize[s.Count()], s)
		if s.Count() <= maxSize {
			subgraphs++
		}
	})
	st := &Store{
		G:       g,
		cards:   make(map[query.BitSet]float64, subgraphs),
		sans:    make(map[sansKey]float64),
		maxSize: maxSize,
	}

	// Level 1: apply base-table selections. Resolving tables and compiling
	// predicates is cheap and stays serial; the per-relation filter scans
	// fan out.
	c.tables = make([]*storage.Table, g.N)
	c.filters = make([]*query.Filter, g.N)
	c.filtered = make([][]int32, g.N)
	rels := make([]int, g.N)
	for i, rel := range g.Q.Rels {
		t := db.Table(rel.Table)
		if t == nil {
			return nil, fmt.Errorf("truecard: no table %q", rel.Table)
		}
		c.tables[i] = t
		f, err := query.NewFilter(rel.Preds, t)
		if err != nil {
			return nil, fmt.Errorf("truecard: %s: %v", g.Q.ID, err)
		}
		c.filters[i] = f
		rels[i] = i
	}
	scans, err := parallel.RunCells(ctx, opts.Parallel, rels,
		func(ctx context.Context, i int) ([]int32, error) {
			// Chunks of ctxCheckMask+1 rows, polling the context between
			// chunks. Each chunk selects into one scratch vector that is
			// appended to rows, so rows grows with what the selection keeps,
			// not with the rows scanned.
			chunk := c.bufs.rows.get(ctxCheckMask + 1)
			defer c.bufs.rows.put(chunk)
			var rows []int32
			for lo, n := 0, c.tables[i].NumRows(); lo < n; lo += ctxCheckMask + 1 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				chunk = c.filters[i].SelectRange(chunk[:0], lo, min(lo+ctxCheckMask+1, n))
				if len(rows)+len(chunk) > cap(rows) {
					rows = c.grow(rows, len(chunk))
				}
				rows = append(rows, chunk...)
			}
			return rows, nil
		})
	if err != nil {
		return nil, err
	}
	prev := make(map[query.BitSet]*result, g.N)
	for i, rows := range scans {
		c.filtered[i] = rows
		s := query.Bit(i)
		st.cards[s] = float64(len(rows))
		if len(g.Q.Rels[i].Preds) > 0 {
			st.sans[sansKey{s, i}] = float64(c.tables[i].NumRows())
		}
		res := &result{n: len(rows), rels: c.probed(s, maxSize)}
		if res.rels != 0 {
			res.cols = [][]int32{rows}
		}
		if resultHook != nil {
			resultHook(g, s, res)
		}
		prev[s] = res
	}

	for size := 2; size <= maxSize; size++ {
		// Every size-k subgraph depends only on the completed level k-1
		// (prev is read-only here), so the whole level fans out; the
		// coordinator merges the outputs in deterministic input order.
		outs, err := parallel.RunCells(ctx, opts.Parallel, bySize[size],
			func(ctx context.Context, s query.BitSet) (subsetOut, error) {
				out, err := c.computeSubset(ctx, s, c.probed(s, maxSize), prev)
				if err == nil && resultHook != nil {
					resultHook(g, s, out.res)
				}
				return out, err
			})
		if err != nil {
			return nil, err
		}
		cur := make(map[query.BitSet]*result, len(bySize[size]))
		for i, s := range bySize[size] {
			st.cards[s] = outs[i].card
			for _, sp := range outs[i].sans {
				st.sans[sansKey{s, sp.r}] = sp.n
			}
			cur[s] = outs[i].res
		}
		// Level size-1 is dead now: recycle its row-id buffers into the
		// pool feeding level size+1. Level 1 is exempt: its columns alias
		// the filtered-row vectors, which release returns.
		if size > 2 {
			for _, res := range prev {
				c.recycle(res)
			}
		}
		prev = cur
	}
	return st, nil
}

// resultHook, when set, sees every result of every level as it is made,
// from the worker that made it. Tests use it to inspect what the DP keeps.
var resultHook func(g *query.Graph, s query.BitSet, res *result)

// release hands the computer's buffers back to bufferPool, keeping only
// the largest. Every worker has returned by now: RunCells waits for all
// of its cells, also when one fails.
func (c *computer) release() {
	for _, rows := range c.filtered {
		c.bufs.rows.put(rows)
	}
	c.bufs.rows.trim(retainRows)
	c.bufs.keys.trim(retainKeys)
	bufferPool.Put(c.bufs)
	c.bufs = nil
}

// computeSubset computes one size-k connected subgraph from the
// level-(k-1) results, keeping the columns of keep. Extending from every
// relation r with connected S\{r}: the first gives the result, all
// filtered ones give the sans-selection counts.
func (c *computer) computeSubset(ctx context.Context, s, keep query.BitSet, prev map[query.BitSet]*result) (subsetOut, error) {
	out := subsetOut{}
	found := false
	for t := s; t != 0; t &= t - 1 {
		r := t.First()
		rest := s.Remove(r)
		base, ok := prev[rest]
		if !ok {
			continue // rest disconnected
		}
		edges := c.g.EdgesBetween(rest, query.Bit(r))
		if edges == 0 {
			continue
		}
		found = true
		if out.res == nil {
			res, err := c.join(ctx, s, keep, base, r, edges)
			if err != nil {
				return subsetOut{}, err
			}
			out.res = res
			out.card = float64(res.n)
		}
		if len(c.g.Q.Rels[r].Preds) > 0 {
			n, err := c.countJoin(ctx, s, base, r, edges, false)
			if err != nil {
				return subsetOut{}, err
			}
			out.sans = append(out.sans, sansPair{r, float64(n)})
		}
	}
	if !found {
		return subsetOut{}, fmt.Errorf("truecard: subgraph %v has no connected extension", s)
	}
	return out, nil
}

// hashOf returns (building lazily, exactly once per key even under
// concurrent workers) a hash of relation rel's column col over either the
// filtered rows or all rows, as flat grouped postings: one counting pass
// groups every row id by key in two contiguous arenas, with none of the
// per-key slice churn of the map[int64][]int32 it replaced. NULL keys are
// never inserted. The build scans rows in ascending order, so per-key row
// order is ascending — exactly what the map-of-appends produced — and the
// content is independent of which worker builds it. The build deliberately
// does not poll the context: a partially built hash must never land in the
// shared cache, and a build is at most one column scan, after which the
// caller's probe loop polls.
func (c *computer) hashOf(rel int, col string, filtered bool) *hashtab.Postings {
	return c.hashes.Get(hashKey{rel, col, filtered}, func() *hashtab.Postings {
		column := c.tables[rel].MustColumn(col)
		n := column.Len()
		if filtered {
			n = len(c.filtered[rel])
		}
		// BuildPostings references neither staging slice, so both go back
		// to the pool.
		keys, vals := c.bufs.keys.get(n), c.bufs.rows.get(n)
		defer func() { c.bufs.keys.put(keys); c.bufs.rows.put(vals) }()
		if filtered {
			for _, row := range c.filtered[rel] {
				if !column.IsNull(int(row)) {
					keys = append(keys, column.Ints[row])
					vals = append(vals, row)
				}
			}
		} else {
			for row := range n {
				if !column.IsNull(row) {
					keys = append(keys, column.Ints[row])
					vals = append(vals, int32(row))
				}
			}
		}
		return hashtab.BuildPostings(keys, vals)
	})
}

// probe is the shared setup of join and countJoin: relation r's hash on
// the key column of the first edge, the base column that probes it, and
// every other predicate of the edges as a residual, split by whether its r
// side is the key column.
type probe struct {
	h     *hashtab.Postings
	dv    hashtab.DenseView
	dense bool
	// key is the first predicate of the first edge: its base side probes
	// h, which is built on its r side.
	key residual
	// keyRes are the residuals whose r side is the hash-key column: every
	// match carries the probe key there, so each reduces to "the base value
	// is non-NULL and equals the key", checked once per probe tuple.
	keyRes []residual
	// res are the remaining residuals, checked per match; the matches that
	// pass are collected in kept.
	res  []residual
	kept []int32
}

// residual is one equality predicate between the base result and relation
// r: a base-side column (with the base result's rows of its relation) and
// an r-side column.
type residual struct {
	baseCol  *storage.Column
	baseRows []int32
	rCol     *storage.Column
}

func (c *computer) newProbe(base *result, r int, edges query.EdgeSet, filtered bool) probe {
	var p probe
	for t := edges; t != 0; t &= t - 1 {
		e := c.g.Edges[t.First()]
		other := e.Other(r)
		rows := base.colOf(other)
		for _, j := range e.Preds {
			baseName, rName := j.LeftCol, j.RightCol
			if c.g.Q.RelIndex(j.LeftAlias) == r {
				baseName, rName = rName, baseName
			}
			rs := residual{c.tables[other].MustColumn(baseName), rows, c.tables[r].MustColumn(rName)}
			switch {
			case p.h == nil:
				p.key, p.h = rs, c.hashOf(r, rName, filtered)
			case rs.rCol == p.key.rCol:
				p.keyRes = append(p.keyRes, rs)
			default:
				p.res = append(p.res, rs)
			}
		}
	}
	p.dv, p.dense = p.h.DenseView()
	return p
}

// matches returns relation r's rows that join base tuple i on the key and
// pass every key residual, in ascending order; keep applies the per-match
// residuals.
func (p *probe) matches(i int) []int32 {
	kRow := int(p.key.baseRows[i])
	if p.key.baseCol.IsNull(kRow) {
		return nil
	}
	key := p.key.baseCol.Ints[kRow]
	for _, rs := range p.keyRes {
		if bRow := int(rs.baseRows[i]); rs.baseCol.IsNull(bRow) || rs.baseCol.Ints[bRow] != key {
			return nil
		}
	}
	// Dense keys resolve inline (surrogate keys almost always do); sparse
	// domains fall back to the hashed lookup.
	if !p.dense {
		return p.h.Lookup(key)
	}
	return p.dv.Lookup(key)
}

// keep returns the rows of m that pass the per-match residuals for base
// tuple i. The slice aliases p.kept and is valid until the next call.
func (p *probe) keep(i int, m []int32) []int32 {
	kept := p.kept[:0]
match:
	for _, rRow := range m {
		for _, rs := range p.res {
			bRow := int(rs.baseRows[i])
			if rs.baseCol.IsNull(bRow) || rs.rCol.IsNull(int(rRow)) || rs.baseCol.Ints[bRow] != rs.rCol.Ints[rRow] {
				continue match
			}
		}
		kept = append(kept, rRow)
	}
	p.kept = kept
	return kept
}

// ctxCheckMask throttles cancellation polling in the probe loops: the
// context is consulted every ctxCheckMask+1 probe tuples, so an aborted
// computation (a sibling worker hit an error) stops promptly without a
// per-tuple atomic load.
const ctxCheckMask = 1<<14 - 1

// join probes base against relation r on the given edges, with r's
// selection applied, and returns the result of subgraph s keeping only the
// columns of keep. The probe collects r's row of every match when r's
// column is kept (that buffer becomes the column), and the base ordinal of
// every match when a base column is kept; each kept base column is then
// gathered once, into a pooled buffer of the final length. With keep
// empty the matches are only counted. The row limit is checked before a probe tuple's
// matches are kept, so no buffer ever grows past MaxRows.
func (c *computer) join(ctx context.Context, s, keep query.BitSet, base *result, r int, edges query.EdgeSet) (*result, error) {
	p := c.newProbe(base, r, edges, true)
	keepR, gather := keep.Has(r), keep.Remove(r) != 0
	var bIdx, rRows []int32 // base ordinal and r row of each match
	if keepR {
		rRows = c.bufs.rows.get(base.n)
	}
	if gather {
		bIdx = c.bufs.rows.get(base.n)
	}
	n := 0
	for i := range base.n {
		if i&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		matches := p.matches(i)
		if len(p.res) > 0 {
			matches = p.keep(i, matches)
		}
		if len(matches) == 0 {
			continue
		}
		if n+len(matches) > c.opts.MaxRows {
			return nil, fmt.Errorf("truecard: %s: intermediate %v exceeds %d rows", c.g.Q.ID, s, c.opts.MaxRows)
		}
		n += len(matches)
		if keepR {
			if len(rRows)+len(matches) > cap(rRows) {
				rRows = c.grow(rRows, len(matches))
			}
			rRows = append(rRows, matches...)
		}
		if gather {
			if len(bIdx)+len(matches) > cap(bIdx) {
				bIdx = c.grow(bIdx, len(matches))
			}
			for range matches {
				bIdx = append(bIdx, int32(i))
			}
		}
	}

	out := &result{n: n, rels: keep, cols: make([][]int32, 0, keep.Count())}
	for t := keep; t != 0; t &= t - 1 {
		if rel := t.First(); rel == r {
			out.cols = append(out.cols, rRows)
		} else {
			out.cols = append(out.cols, hashtab.GatherAppend(c.bufs.rows.get(n), base.colOf(rel), bIdx))
		}
	}
	c.bufs.rows.put(bIdx)
	return out, nil
}

// SansRowsFactor is the headroom sans-selection counts get over
// Options.MaxRows: with relation r's selection discarded the count can
// legitimately dwarf every materialised intermediate, but a count this far
// past the limit signals the same misconfiguration MaxRows guards against.
// A workload that legitimately needs more raises Options.MaxRows — the
// sans bound scales with it.
const SansRowsFactor = 8

// countJoin is join without materialisation, for the sans-selection counts
// of subgraph s. It is bounded at SansRowsFactor*MaxRows — so an unbounded
// count cannot run orders of magnitude past the limit — and polls the
// context so sibling-worker failures cancel it.
func (c *computer) countJoin(ctx context.Context, s query.BitSet, base *result, r int, edges query.EdgeSet, filtered bool) (int64, error) {
	p := c.newProbe(base, r, edges, filtered)
	limit := int64(c.opts.MaxRows)
	if limit > math.MaxInt64/SansRowsFactor {
		limit = math.MaxInt64 // effectively unbounded, don't wrap negative
	} else {
		limit *= SansRowsFactor
	}
	var count int64
	for i := range base.n {
		if i&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return count, err
			}
		}
		matches := p.matches(i)
		if len(p.res) > 0 {
			matches = p.keep(i, matches)
		}
		count += int64(len(matches))
		// The limit is settled per match list, not per probe scan: a single
		// skewed join key can carry the whole overrun.
		if count > limit {
			return count, fmt.Errorf("truecard: %s: sans-selection count for %v (relation %d unfiltered) exceeds %d rows",
				c.g.Q.ID, s, r, limit)
		}
	}
	return count, nil
}
