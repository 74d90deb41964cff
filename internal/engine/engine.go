// Package engine executes physical plans over the column store and meters
// the work they perform. It implements the paper's §2.3 execution model:
// full table scans, unclustered index lookups, classic nested-loop joins,
// in-memory hash joins and index-nested-loop joins: exactly the operators
// an enumerated plan can contain.
//
// Two engine behaviours from §4.1 are modelled mechanically, not by
// formula:
//
//   - Hash tables are sized from the *optimizer's cardinality estimate* of
//     the build side. Underestimates produce undersized tables with long
//     collision chains whose traversal is really performed (and counted).
//     Config.Rehash enables the PostgreSQL 9.5 behaviour of growing the
//     table at runtime.
//   - Classic nested-loop joins really are O(n·m).
//
// Runtime is reported in deterministic work units (one unit ~ one sequential
// tuple touch; index lookups cost a random-access factor), plus wall-clock
// time. A work limit models the paper's query timeouts.
//
// # Execution model
//
// The executor is block-at-a-time (vectorized): operators consume their
// inputs in fixed-size blocks, accumulate work units in a register, and
// settle with the work limit once per block instead of once per tuple.
// Join outputs are emitted column-at-a-time from per-block match index
// vectors into emitters preallocated from the optimizer's output estimate;
// match and index buffers are owned by the executor and reused across plan
// nodes (and, through Runner, across executions). Hash joins build on the
// flat open-layout table of internal/hashtab. Index-nested-loop joins probe
// the way internal/truecard does: residuals on the index key column are
// checked once per outer tuple, dense keys resolve inline, and each fetched
// row is tested against the inner relation's selection as a bitmap cached
// with its compiled filter; nothing is buffered between fetch and filter.
//
// None of this changes what is measured. The work-unit invariance contract
// — enforced by TestGoldenWorkUnits against a table generated by the
// scalar row-at-a-time engine, and by its TPC-H and skewed-world
// siblings — is that work units, row counts, timeout
// decisions and therefore every experiment report are identical to the
// tuple-at-a-time engine; only wall-clock time drops. Blocks change where
// the work limit is *checked* (deterministically, at block boundaries),
// never how much work is *counted*, and since work grows monotonically a
// plan exceeds the limit at a block boundary exactly when it would have
// exceeded it mid-block.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"jobench/internal/hashtab"
	"jobench/internal/index"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// Work-unit weights. One unit is one sequential tuple touch; a random index
// access costs RandomAccessFactor units (main-memory setting: small, per
// §4.2 index-nested-loop joins are never disastrous in RAM).
const (
	RandomAccessFactor = 4
	HashBuildFactor    = 2
)

// blockSize is the number of input rows an operator consumes per block:
// large enough to amortise the work-limit settlement and emit dispatch,
// small enough that the index vectors stay cache resident. A var so
// benchmarks can pit the degenerate row-at-a-time setting against full
// blocks; work totals are identical at any value.
var blockSize = 1024

// emitCapMax bounds the per-column preallocation derived from the
// optimizer's output estimate: overestimates must not translate into
// gigabyte reservations.
const emitCapMax = 1 << 20

// Config controls execution.
type Config struct {
	// Rehash grows hash tables at runtime (the 9.5 backport of §4.1);
	// without it the table is fixed at the estimate-derived size.
	Rehash bool
	// WorkLimit aborts execution after this many work units (0 = off).
	// It is the timeout of §4.1.
	WorkLimit int64
	// Stats, when non-nil, receives per-operator actuals indexed by
	// preorder node id (size it with plan.NumNodes). Collection happens
	// at block boundaries only — one length check per settled block —
	// so the metered work and the timeout point are identical with and
	// without it; nil disables every stats branch.
	Stats []plan.NodeStats
	// Ctx, when non-nil, bounds execution: cancellation (or a deadline)
	// aborts at the next block boundary with ctx's error. Like Stats, the
	// check is one nil test plus a non-blocking channel select per settled
	// block, so metering is byte-identical with and without it —
	// cancellation only cuts execution short, it never changes how work is
	// charged. nil means unbounded (the pre-deadline behavior).
	Ctx context.Context
}

// Result reports an execution.
type Result struct {
	Rows     int64
	Work     int64
	Duration time.Duration
	TimedOut bool
}

// ErrWorkLimit is returned (wrapped) when the work limit was exceeded.
var ErrWorkLimit = errors.New("engine: work limit exceeded")

// Runner executes plans while reusing its scratch buffers (match vectors,
// emit index vectors, sort arenas, the row-id buffer pool) across
// executions: a sweep that runs hundreds of plans pays the buffer growth
// once instead of once per plan. A Runner is not tied to a database or
// index set — sweeps that alternate physical designs share one. It is not
// safe for concurrent use; concurrent sweeps use one Runner per worker
// (e.g. via sync.Pool) or the package-level Run, which is stateless.
type Runner struct {
	sc scratch
}

// NewRunner returns an empty Runner; its buffers grow to the sweep's
// working set over the first executions.
func NewRunner() *Runner { return &Runner{} }

// Run executes the plan over db, using idx for index-nested-loop joins,
// reusing the Runner's scratch space. root may be any subtree of a plan —
// a prefix of the full join order: the executor touches only the relations
// and edges reachable from it, so a subtree runs exactly as it would
// inside the full plan and reports the rows its materialised intermediate
// would have (adaptive re-optimization, internal/reopt, probes that way).
func (r *Runner) Run(db *storage.Database, idx *index.Set, g *query.Graph, root *plan.Node, cfg Config) (Result, error) {
	start := time.Now()
	ex := &executor{db: db, idx: idx, g: g, cfg: cfg, sc: &r.sc, block: blockSize, stats: cfg.Stats}
	if cfg.Ctx != nil {
		ex.done = cfg.Ctx.Done()
	}
	// The root's consumer is the row count alone: no column is live above
	// it, and projection pushdown prunes the rest of the tree from there.
	out, err := ex.exec(root, query.BitSet(0), 0)
	res := Result{Work: ex.work, Duration: time.Since(start)}
	if err != nil {
		res.TimedOut = errors.Is(err, ErrWorkLimit)
		return res, err
	}
	res.Rows = int64(out.rows())
	return res, nil
}

// runnerPool backs the package-level Run: one-shot executions borrow a
// warmed Runner, so repeated calls (the facade's Execute, ad-hoc sweeps)
// amortise buffer growth exactly like an explicit Runner. The GC drains
// the pool under memory pressure.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// Run executes the plan over db, using idx for index-nested-loop joins.
// It is safe for concurrent use; sequential sweeps get slightly better
// buffer locality from a dedicated Runner.
func Run(db *storage.Database, idx *index.Set, g *query.Graph, root *plan.Node, cfg Config) (Result, error) {
	r := runnerPool.Get().(*Runner)
	defer runnerPool.Put(r)
	return r.Run(db, idx, g, root, cfg)
}

// batch is a materialised intermediate result: row ids per relation,
// column-major, relations ascending. Projection is pushed down: only the
// columns some ancestor operator still needs (join keys, residual columns)
// are materialised, so the row count is carried explicitly.
type batch struct {
	n    int
	rels []int
	cols [][]int32
}

func (b *batch) rows() int { return b.n }

func (b *batch) colOf(rel int) []int32 {
	for i, r := range b.rels {
		if r == rel {
			return b.cols[i]
		}
	}
	panic(fmt.Sprintf("engine: relation %d not in batch %v", rel, b.rels))
}

// scratch is the executor-owned buffer set reused across plan nodes and,
// via Runner, across executions. Every buffer is length-reset (never
// reallocated) when a node claims it.
type scratch struct {
	matches []int32 // hash-probe match buffer
	lIdx    []int32 // left ordinals of the current block's emitted pairs
	rIdx    []int32 // right ordinals (or base rows, for index joins)
	innerV  []int64 // nested-loop: gathered inner key values
	innerN  []bool  // nested-loop: gathered inner NULL flags

	// free is the row-id buffer pool. Batches are strictly tree-shaped:
	// a join's input batches are dead the moment its output is emitted, so
	// each operator recycles its children's columns on completion and the
	// steady state of a sweep allocates almost no intermediate storage.
	free [][]int32

	// filters caches compiled selections: compiling a LIKE predicate scans
	// the column dictionary, and an index join's bitmap the whole table,
	// which would otherwise recur on every scan and index join of a sweep.
	// Keyed by table identity as well as (graph, relation) because a Runner
	// may serve many databases.
	filters map[filterKey]*selection
}

// selection is a relation's compiled filter and, once an index join has
// fetched from the relation, the same selection as a bitmap over its
// table: bit r is set iff row r passes, so a fetched row costs one bit
// test however many predicates the relation carries.
type selection struct {
	f    *query.Filter
	bits []uint64 // nil until bitmap builds it
}

// bitmap returns the selection over the table's nr rows as a bitmap,
// building it on first use.
func (s *selection) bitmap(sc *scratch, nr int) []uint64 {
	if s.bits == nil {
		rows := s.f.SelectRange(sc.getBuf(nr), 0, nr)
		s.bits = make([]uint64, (nr+63)/64)
		for _, r := range rows {
			s.bits[r>>6] |= 1 << (r & 63)
		}
		sc.putBuf(rows)
	}
	return s.bits
}

type filterKey struct {
	g   *query.Graph
	rel int
	t   *storage.Table
}

// filterCacheMax bounds the compiled-filter cache; a full JOB sweep needs
// ~2k entries, so eviction (a full reset) is a misuse backstop, not a
// steady-state event.
const filterCacheMax = 4096

// selection returns the (cached) compiled selection of relation rel.
func (ex *executor) selection(rel int, t *storage.Table) (*selection, error) {
	k := filterKey{g: ex.g, rel: rel, t: t}
	if s, ok := ex.sc.filters[k]; ok {
		return s, nil
	}
	f, err := query.NewFilter(ex.g.Q.Rels[rel].Preds, t)
	if err != nil {
		return nil, err
	}
	if ex.sc.filters == nil || len(ex.sc.filters) >= filterCacheMax {
		ex.sc.filters = make(map[filterKey]*selection)
	}
	s := &selection{f: f}
	ex.sc.filters[k] = s
	return s, nil
}

// poolMax bounds the free list so a Runner's steady-state retention is the
// working set of its largest plan, not every buffer it ever saw.
const poolMax = 64

// getBuf returns a pooled row buffer with at least the requested capacity
// (allocating one if none fits), length zero. The scan starts at the most
// recently released buffer: join outputs grow large and are released last,
// so underestimated emitters usually inherit an already-grown column
// instead of re-doubling from the estimate.
func (sc *scratch) getBuf(capHint int) []int32 {
	free := sc.free
	for i := len(free) - 1; i >= 0; i-- {
		if cap(free[i]) >= capHint {
			b := free[i]
			last := len(free) - 1
			free[i] = free[last]
			free[last] = nil
			sc.free = free[:last]
			return b[:0]
		}
	}
	return make([]int32, 0, capHint)
}

func (sc *scratch) putBuf(b []int32) {
	if cap(b) == 0 {
		return
	}
	if len(sc.free) >= poolMax {
		// Full: evict the smallest entry if the incoming buffer beats it —
		// capacity is what makes a pooled buffer useful.
		small := 0
		for i := range sc.free {
			if cap(sc.free[i]) < cap(sc.free[small]) {
				small = i
			}
		}
		if cap(sc.free[small]) >= cap(b) {
			return
		}
		sc.free[small] = b[:0]
		return
	}
	sc.free = append(sc.free, b[:0])
}

// release returns a consumed batch's columns to the pool. Only batches
// produced by this executor's operators (whose columns it owns) may be
// released; table columns never enter a batch.
func (ex *executor) release(b *batch) {
	for i, col := range b.cols {
		ex.sc.putBuf(col)
		b.cols[i] = nil
	}
}

type executor struct {
	db    *storage.Database
	idx   *index.Set
	g     *query.Graph
	cfg   Config
	work  int64
	sc    *scratch
	block int
	stats []plan.NodeStats
	done  <-chan struct{} // cfg.Ctx.Done(), captured once; nil when unbounded
}

// charge settles a block's accumulated work units against the limit,
// attributing them to plan node id when stats collection is on. It is
// called at block boundaries and operator ends, so both the limit check
// and the stats branch run O(n/blockSize) times instead of O(n) — with
// identical totals and a deterministic (input-defined, never
// time-defined) timeout point.
func (ex *executor) charge(id int, units int64) error {
	ex.work += units
	if id < len(ex.stats) {
		st := &ex.stats[id]
		st.WorkUnits += units
		st.Blocks++
	}
	if ex.cfg.WorkLimit > 0 && ex.work > ex.cfg.WorkLimit {
		return ErrWorkLimit
	}
	if ex.done != nil {
		select {
		case <-ex.done:
			return ex.cfg.Ctx.Err()
		default:
		}
	}
	return nil
}

func (ex *executor) table(rel int) *storage.Table {
	return ex.db.MustTable(ex.g.Q.Rels[rel].Table)
}

// exec evaluates n. live is the set of relations whose row-id columns some
// ancestor still consumes (as a join key or residual column); columns
// outside it are never materialised. Work units count tuples, not columns,
// so the pruning has no metering effect. id is the node's preorder id
// (plan.LeftChildID/RightChildID arithmetic — plans are shared across
// concurrent executions, so nodes carry no mutable id field); with stats
// off it is dead weight in a register.
func (ex *executor) exec(n *plan.Node, live query.BitSet, id int) (*batch, error) {
	if ex.stats == nil {
		return ex.execNode(n, live, id)
	}
	start := time.Now()
	out, err := ex.execNode(n, live, id)
	if id < len(ex.stats) {
		st := &ex.stats[id]
		st.WallNanos += time.Since(start).Nanoseconds()
		if out != nil {
			st.RowsOut = int64(out.rows())
		}
	}
	return out, err
}

func (ex *executor) execNode(n *plan.Node, live query.BitSet, id int) (*batch, error) {
	if n.IsLeaf() {
		return ex.scan(n, id)
	}
	switch n.Algo {
	case plan.HashJoin:
		return ex.hashJoin(n, live, id)
	case plan.IndexNLJoin:
		return ex.indexJoin(n, live, id)
	case plan.NestedLoopJoin:
		return ex.nestedLoop(n, live, id)
	default:
		return nil, fmt.Errorf("engine: unknown join algorithm %v", n.Algo)
	}
}

// scan reads the base table sequentially, applying the selection. The row
// vector is preallocated from the table's row count: a scan's output can
// never exceed its input, and the tables are small relative to the
// intermediates the join operators allocate.
func (ex *executor) scan(n *plan.Node, id int) (*batch, error) {
	rel := n.Rel
	t := ex.table(rel)
	sel, err := ex.selection(rel, t)
	if err != nil {
		return nil, err
	}
	nr := t.NumRows()
	rows := sel.f.SelectRange(ex.sc.getBuf(nr), 0, nr)
	// One unit per tuple scanned plus one per emitted tuple.
	if err := ex.charge(id, int64(nr)+int64(len(rows))); err != nil {
		return nil, err
	}
	// A leaf's column is always live: its parent joins on this relation.
	return &batch{n: len(rows), rels: []int{rel}, cols: [][]int32{rows}}, nil
}

// joinCondition resolves the physical key and residual predicates of a join
// node against its two children.
type joinCondition struct {
	probeRel  int // relation carrying the key on the probe side
	probeCol  *storage.Column
	buildRel  int
	buildCol  *storage.Column
	residuals []residualPred
}

type residualPred struct {
	lRel int
	lCol *storage.Column
	rRel int
	rCol *storage.Column
}

// condition computes the join condition with the build/outer side = left
// child and probe/inner side = right child.
func (ex *executor) condition(n *plan.Node) (*joinCondition, error) {
	jc := &joinCondition{}
	first := true
	for _, ei := range n.EdgeIdxs {
		e := ex.g.Edges[ei]
		for _, j := range e.Preds {
			li := ex.g.Q.RelIndex(j.LeftAlias)
			ri := ex.g.Q.RelIndex(j.RightAlias)
			lCol := ex.table(li).MustColumn(j.LeftCol)
			rCol := ex.table(ri).MustColumn(j.RightCol)
			// Normalise: l side in n.Left.S, r side in n.Right.S.
			if n.Left.S.Has(ri) {
				li, ri = ri, li
				lCol, rCol = rCol, lCol
			}
			if !n.Left.S.Has(li) || !n.Right.S.Has(ri) {
				return nil, fmt.Errorf("engine: edge %d does not span join %v", ei, n.S)
			}
			if first {
				jc.buildRel, jc.buildCol = li, lCol
				jc.probeRel, jc.probeCol = ri, rCol
				first = false
				continue
			}
			jc.residuals = append(jc.residuals, residualPred{lRel: li, lCol: lCol, rRel: ri, rCol: rCol})
		}
	}
	if first {
		return nil, fmt.Errorf("engine: join %v has no predicates", n.S)
	}
	return jc, nil
}

// childLive derives the live column sets of a join's children: everything
// the ancestors still need, plus the key and residual columns this join
// itself consumes. Relations outside a child's subtree are harmless — a
// child only materialises live relations it actually owns.
func childLive(jc *joinCondition, live query.BitSet) (l, r query.BitSet) {
	l = live.Add(jc.buildRel)
	r = live.Add(jc.probeRel)
	for i := range jc.residuals {
		l = l.Add(jc.residuals[i].lRel)
		r = r.Add(jc.residuals[i].rRel)
	}
	return l, r
}

// boundResidual is a residual predicate with its row-id vectors resolved
// against the two input batches once per join instead of once per tuple
// pair. rRows is nil for index joins, whose right side is a base row id.
type boundResidual struct {
	lRows []int32
	lCol  *storage.Column
	rRows []int32
	rCol  *storage.Column
}

// bindResiduals resolves the residuals of jc against the input batches.
// For index joins r is nil and the right side binds to the base table row.
func bindResiduals(jc *joinCondition, l, r *batch) []boundResidual {
	if len(jc.residuals) == 0 {
		return nil
	}
	out := make([]boundResidual, len(jc.residuals))
	for i, rp := range jc.residuals {
		out[i] = boundResidual{lRows: l.colOf(rp.lRel), lCol: rp.lCol, rCol: rp.rCol}
		if r != nil {
			out[i].rRows = r.colOf(rp.rRel)
		}
	}
	return out
}

// checkResiduals applies the non-primary join predicates to the pair
// (left ordinal li, right ordinal ri); for index joins ri is the inner
// base row itself.
func checkResiduals(res []boundResidual, li, ri int) bool {
	for k := range res {
		rp := &res[k]
		lRow := int(rp.lRows[li])
		rRow := ri
		if rp.rRows != nil {
			rRow = int(rp.rRows[ri])
		}
		if rp.lCol.IsNull(lRow) || rp.rCol.IsNull(rRow) {
			return false
		}
		if rp.lCol.Ints[lRow] != rp.rCol.Ints[rRow] {
			return false
		}
	}
	return true
}

func mergeRels(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// emitCap clamps the optimizer's output estimate into a sane preallocation
// for the emitter's columns.
func emitCap(ecard float64) int {
	if math.IsNaN(ecard) || ecard < 0 {
		return 0
	}
	if ecard > emitCapMax {
		return emitCapMax
	}
	return int(ecard)
}

// emitter accumulates joined tuples column-at-a-time: each block of matched
// (left, right) ordinal pairs is appended one output column at a time, so
// the inner loop is a tight gather instead of a per-tuple walk over all
// columns. Only columns in the ancestors' live set are materialised
// (projection pushdown); the tuple count is tracked separately. Columns
// are preallocated from the optimizer's estimate of the join's output
// cardinality — right or wrong, that is the best guess available before
// execution, and appends beyond it simply grow.
type emitter struct {
	n    int
	rels []int
	cols [][]int32
	lPos []int // for each output slot, index into left batch cols (or -1)
	rPos []int
}

func newEmitter(sc *scratch, l, r *batch, live query.BitSet, ecard float64) *emitter {
	rels := mergeRels(l.rels, r.rels)
	kept := rels[:0]
	for _, rel := range rels {
		if live.Has(rel) {
			kept = append(kept, rel)
		}
	}
	rels = kept
	e := &emitter{rels: rels, cols: make([][]int32, len(rels)),
		lPos: make([]int, len(rels)), rPos: make([]int, len(rels))}
	c := emitCap(ecard)
	for i, rel := range rels {
		e.cols[i] = sc.getBuf(c)
		e.lPos[i], e.rPos[i] = -1, -1
		for k, x := range l.rels {
			if x == rel {
				e.lPos[i] = k
			}
		}
		if r != nil {
			for k, x := range r.rels {
				if x == rel {
					e.rPos[i] = k
				}
			}
		}
	}
	return e
}

// emitBlock appends one block of matches, given as parallel ordinal
// vectors into the left and right batches.
func (e *emitter) emitBlock(l, r *batch, lIdx, rIdx []int32) {
	e.n += len(lIdx)
	if len(lIdx) == 0 {
		return
	}
	for k := range e.rels {
		if p := e.lPos[k]; p >= 0 {
			e.cols[k] = hashtab.GatherAppend(e.cols[k], l.cols[p], lIdx)
		} else {
			e.cols[k] = hashtab.GatherAppend(e.cols[k], r.cols[e.rPos[k]], rIdx)
		}
	}
}

// emitIndexBlock appends one block of index-join matches: left ordinals
// plus the matched inner base rows themselves.
func (e *emitter) emitIndexBlock(l *batch, lIdx, rRows []int32) {
	e.n += len(lIdx)
	if len(lIdx) == 0 {
		return
	}
	for k := range e.rels {
		if p := e.lPos[k]; p >= 0 {
			e.cols[k] = hashtab.GatherAppend(e.cols[k], l.cols[p], lIdx)
		} else {
			e.cols[k] = append(e.cols[k], rRows...)
		}
	}
}

func (e *emitter) batch() *batch {
	for k := range e.cols {
		if e.cols[k] == nil {
			e.cols[k] = []int32{}
		}
	}
	return &batch{n: e.n, rels: e.rels, cols: e.cols}
}
