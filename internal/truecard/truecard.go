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
// table of the extending relation; only two levels are kept in memory.
// Within a level all size-k subgraphs depend only on level k-1, so they fan
// out across Options.Parallel workers; results are identical to the serial
// path at any worker count.
package truecard

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// result is a materialised intermediate: for each tuple, one base-table row
// id per relation. Column-major: cols[k][i] is the row of rels[k] in tuple i.
type result struct {
	rels []int
	cols [][]int32
}

func (r *result) rows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return len(r.cols[0])
}

func (r *result) colOf(rel int) []int32 {
	for k, x := range r.rels {
		if x == rel {
			return r.cols[k]
		}
	}
	panic(fmt.Sprintf("truecard: relation %d not in result %v", rel, r.rels))
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

	// bufs recycles row-id column buffers across DP levels: once level k is
	// materialised, level k-1's columns are dead and their backing arrays
	// feed level k+1. Workers pop and push concurrently.
	bufMu sync.Mutex
	bufs  [][]int32
}

// getBuf pops a recycled row-id buffer (length zero) or returns nil,
// which appends treat as an empty slice.
func (c *computer) getBuf() []int32 {
	c.bufMu.Lock()
	defer c.bufMu.Unlock()
	if n := len(c.bufs); n > 0 {
		b := c.bufs[n-1]
		c.bufs[n-1] = nil
		c.bufs = c.bufs[:n-1]
		return b
	}
	return nil
}

// putBuf returns one buffer to the pool.
func (c *computer) putBuf(b []int32) {
	if cap(b) == 0 {
		return
	}
	c.bufMu.Lock()
	c.bufs = append(c.bufs, b[:0])
	c.bufMu.Unlock()
}

// recycle returns a dead result's columns to the buffer pool.
func (c *computer) recycle(r *result) {
	if r == nil || len(r.cols) == 0 {
		return
	}
	c.bufMu.Lock()
	defer c.bufMu.Unlock()
	for _, col := range r.cols {
		if cap(col) > 0 {
			c.bufs = append(c.bufs, col[:0])
		}
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
	c := &computer{db: db, g: g, opts: opts}
	st := &Store{
		G:       g,
		cards:   make(map[query.BitSet]float64),
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
			var rows, chunk []int32
			for lo, n := 0, c.tables[i].NumRows(); lo < n; lo += ctxCheckMask + 1 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				chunk = c.filters[i].SelectRange(chunk[:0], lo, min(lo+ctxCheckMask+1, n))
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
		prev[s] = &result{rels: []int{i}, cols: [][]int32{rows}}
	}

	// Group connected subsets by size.
	bySize := make([][]query.BitSet, g.N+1)
	g.ConnectedSubsets(func(s query.BitSet) {
		bySize[s.Count()] = append(bySize[s.Count()], s)
	})

	for size := 2; size <= maxSize; size++ {
		// Every size-k subgraph depends only on the completed level k-1
		// (prev is read-only here), so the whole level fans out; the
		// coordinator merges the outputs in deterministic input order.
		outs, err := parallel.RunCells(ctx, opts.Parallel, bySize[size],
			func(ctx context.Context, s query.BitSet) (subsetOut, error) {
				return c.computeSubset(ctx, s, prev)
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
		// pool feeding level size+1. Level 1 is exempt — its columns alias
		// the shared filtered-row vectors, not pooled buffers.
		if size > 2 {
			for _, res := range prev {
				c.recycle(res)
			}
		}
		prev = cur
	}
	return st, nil
}

// computeSubset materialises one size-k connected subgraph from the
// level-(k-1) results. Extending from every relation r with connected
// S\{r}: the first gives the materialised result, all filtered ones give
// the sans-selection counts.
func (c *computer) computeSubset(ctx context.Context, s query.BitSet, prev map[query.BitSet]*result) (subsetOut, error) {
	out := subsetOut{}
	found := false
	for _, r := range s.Elems() {
		rest := s.Remove(r)
		base, ok := prev[rest]
		if !ok {
			continue // rest disconnected
		}
		between := c.g.EdgesBetween(rest, query.Bit(r))
		if between == 0 {
			continue
		}
		edges := between.Elems()
		found = true
		if out.res == nil {
			res, err := c.join(ctx, s, base, r, edges, true)
			if err != nil {
				return subsetOut{}, err
			}
			out.res = res
			out.card = float64(res.rows())
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
		var keys []int64
		var vals []int32
		if filtered {
			keys = make([]int64, 0, len(c.filtered[rel]))
			vals = make([]int32, 0, len(c.filtered[rel]))
			for _, row := range c.filtered[rel] {
				if !column.IsNull(int(row)) {
					keys = append(keys, column.Ints[row])
					vals = append(vals, row)
				}
			}
		} else {
			keys = make([]int64, 0, column.Len())
			vals = make([]int32, 0, column.Len())
			for row := 0; row < column.Len(); row++ {
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

func (c *computer) newProbe(base *result, r int, edges []int, filtered bool) *probe {
	p := &probe{}
	for i, ei := range edges {
		e := c.g.Edges[ei]
		other := e.Other(r)
		rows := base.colOf(other)
		for k, j := range e.Preds {
			baseName, rName := j.LeftCol, j.RightCol
			if c.g.Q.RelIndex(j.LeftAlias) == r {
				baseName, rName = rName, baseName
			}
			rs := residual{c.tables[other].MustColumn(baseName), rows, c.tables[r].MustColumn(rName)}
			switch {
			case i == 0 && k == 0:
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

// join probes base against relation r on the given edges and materialises
// the combined result for subgraph s (filtered selects whether r's
// selection applies). The probe keeps the base ordinal and r row of every
// match; r's output column is that match buffer itself, and every base
// column is gathered once, at its final length. The row limit is checked
// before a probe tuple's matches are kept, so no buffer ever grows past
// MaxRows.
func (c *computer) join(ctx context.Context, s query.BitSet, base *result, r int, edges []int, filtered bool) (*result, error) {
	p := c.newProbe(base, r, edges, filtered)
	bIdx := c.getBuf()  // base ordinal of each match
	rRows := c.getBuf() // matched r row of each match
	for i := range base.rows() {
		if i&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		matches := p.matches(i)
		if len(p.res) > 0 {
			matches = p.keep(i, matches)
		}
		if len(rRows)+len(matches) > c.opts.MaxRows {
			return nil, fmt.Errorf("truecard: %s: intermediate %v exceeds %d rows", c.g.Q.ID, s, c.opts.MaxRows)
		}
		rRows = append(rRows, matches...)
		for range matches {
			bIdx = append(bIdx, int32(i))
		}
	}

	// Output layout: base relations plus r, ascending.
	pos, _ := slices.BinarySearch(base.rels, r)
	out := &result{rels: slices.Insert(slices.Clone(base.rels), pos, r), cols: make([][]int32, len(base.rels)+1)}
	for k, rel := range out.rels {
		if k == pos {
			out.cols[k] = rRows
		} else {
			out.cols[k] = hashtab.GatherAppend(c.getBuf(), base.colOf(rel), bIdx)
		}
	}
	c.putBuf(bIdx)
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
func (c *computer) countJoin(ctx context.Context, s query.BitSet, base *result, r int, edges []int, filtered bool) (int64, error) {
	p := c.newProbe(base, r, edges, filtered)
	limit := int64(c.opts.MaxRows)
	if limit > math.MaxInt64/SansRowsFactor {
		limit = math.MaxInt64 // effectively unbounded, don't wrap negative
	} else {
		limit *= SansRowsFactor
	}
	var count int64
	for i := range base.rows() {
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
