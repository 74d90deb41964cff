package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"jobench/internal/hashtab"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// hashJoin builds on the left child (§6.2 convention), probes with the
// right child. The table is hashtab's flat open-layout table; its bucket
// count comes from the optimizer's estimate, which is the §4.1 mechanism:
// an underestimated build side yields long collision chains whose
// traversal costs real work. With rehash enabled the table doubles once
// the load factor exceeds 3 (the PostgreSQL 9.5 behaviour), paying the
// reinsertion work instead.
func (ex *executor) hashJoin(n *plan.Node, live query.BitSet, id int) (*batch, error) {
	jc, err := ex.condition(n)
	if err != nil {
		return nil, err
	}
	leftLive, rightLive := childLive(jc, live)
	left, err := ex.exec(n.Left, leftLive, plan.LeftChildID(id))
	if err != nil {
		return nil, err
	}
	right, err := ex.exec(n.Right, rightLive, n.RightChildID(id))
	if err != nil {
		return nil, err
	}
	// The hash table is sized by the optimizer's estimate of the build
	// side, NOT its true size: that is the whole point. The entry arena,
	// whose size is no part of the §4.1 model, is reserved at the true
	// build size — an allocation saving with no metering effect.
	ht := hashtab.New(n.Left.ECard)
	buildRows := left.colOf(jc.buildRel)
	ht.Reserve(len(buildRows))
	bCol := jc.buildCol
	for base := 0; base < len(buildRows); base += ex.block {
		end := min(base+ex.block, len(buildRows))
		var w int64
		for i := base; i < end; i++ {
			row := buildRows[i]
			if bCol.IsNull(int(row)) {
				continue
			}
			w += HashBuildFactor + ht.Insert(bCol.Ints[row], int32(i), ex.cfg.Rehash)
		}
		if err := ex.charge(id, w); err != nil {
			return nil, err
		}
	}

	em := newEmitter(ex.sc, left, right, live, n.ECard)
	res := bindResiduals(jc, left, right)
	probeRows := right.colOf(jc.probeRel)
	pCol := jc.probeCol
	matches := ex.sc.matches[:0]
	lIdx, rIdx := ex.sc.lIdx[:0], ex.sc.rIdx[:0]
	for base := 0; base < len(probeRows); base += ex.block {
		end := min(base+ex.block, len(probeRows))
		var w int64
		lIdx, rIdx = lIdx[:0], rIdx[:0]
		for ri := base; ri < end; ri++ {
			row := probeRows[ri]
			if pCol.IsNull(int(row)) {
				w++
				continue
			}
			// The chain walk is metered in full (the §4.1 penalty Fig. 6c
			// removes by rehashing), matches or not.
			var walked int64
			matches, walked = ht.Probe(pCol.Ints[row], matches[:0])
			w += 1 + walked
			for _, li := range matches {
				if !checkResiduals(res, int(li), ri) {
					continue
				}
				lIdx = append(lIdx, li)
				rIdx = append(rIdx, int32(ri))
				w++
			}
		}
		em.emitBlock(left, right, lIdx, rIdx)
		if err := ex.charge(id, w); err != nil {
			return nil, err
		}
	}
	ex.sc.matches, ex.sc.lIdx, ex.sc.rIdx = matches[:0], lIdx[:0], rIdx[:0]
	ex.release(left)
	ex.release(right)
	return em.batch(), nil
}

// indexJoin looks up each left tuple in the index on the right base
// relation; the right relation's selection applies only *after* the fetch
// (§2.4), which is also why its cost uses the unfiltered intermediate.
func (ex *executor) indexJoin(n *plan.Node, live query.BitSet, id int) (*batch, error) {
	if !n.Right.IsLeaf() {
		return nil, fmt.Errorf("engine: IndexNLJoin with non-leaf inner")
	}
	rRel := n.Right.Rel
	table, col := n.RightKeyColumn(ex.g)
	idx := ex.idx.Get(table, col)
	if idx == nil {
		return nil, fmt.Errorf("engine: no index on %s.%s", table, col)
	}
	t := ex.table(rRel)
	filter, err := ex.compileFilter(rRel, t)
	if err != nil {
		return nil, err
	}
	jc, err := ex.condition(n)
	if err != nil {
		return nil, err
	}
	if jc.probeRel != rRel {
		// condition() puts the left side as build; for INL we probe the
		// index with left values, so the "probe" side here must be r.
		return nil, fmt.Errorf("engine: index join condition inverted")
	}
	leftLive, _ := childLive(jc, live)
	left, err := ex.exec(n.Left, leftLive, plan.LeftChildID(id))
	if err != nil {
		return nil, err
	}

	em := newIndexEmitter(ex.sc, left, rRel, live, n.ECard)
	res := bindResiduals(jc, left, nil)
	outerRows := left.colOf(jc.buildRel)
	oCol := jc.buildCol
	lIdx, rRows := ex.sc.lIdx[:0], ex.sc.rIdx[:0]
	fb := &ex.sc.fetch
	// Without predicates there is nothing to select, and the fetched tuples
	// go straight to the residual check.
	unfiltered := len(ex.g.Q.Rels[rRel].Preds) == 0
	for base := 0; base < len(outerRows); base += ex.block {
		end := min(base+ex.block, len(outerRows))
		var w int64
		lIdx, rRows = lIdx[:0], rRows[:0]
		for li := base; li < end; li++ {
			row := outerRows[li]
			if oCol.IsNull(int(row)) {
				w++
				continue
			}
			// Random access into the index plus one unit per fetched tuple;
			// the selection applies after the fetch.
			postings := idx.Lookup(oCol.Ints[row])
			w += RandomAccessFactor + int64(len(postings))
			if unfiltered {
				for _, r := range postings {
					if checkResiduals(res, li, int(r)) {
						lIdx = append(lIdx, int32(li))
						rRows = append(rRows, r)
					}
				}
				continue
			}
			fb.add(int32(li), postings)
			if len(fb.fetched) >= fetchBatchMax {
				lIdx, rRows = fb.filter(filter, res, lIdx, rRows)
			}
		}
		lIdx, rRows = fb.filter(filter, res, lIdx, rRows)
		w += int64(len(lIdx)) // one unit per emitted pair
		em.emitIndexBlock(left, lIdx, rRows)
		if err := ex.charge(id, w); err != nil {
			return nil, err
		}
	}
	ex.sc.lIdx, ex.sc.rIdx = lIdx[:0], rRows[:0]
	ex.release(left)
	return em.batch(), nil
}

// fetchBatchMax bounds how many fetched tuples an index join buffers
// before filtering them: a skewed key must not make one block's buffer
// unbounded. A var so tests can force a flush after every outer tuple.
var fetchBatchMax = 1 << 14

// fetchBatch collects the tuples an index join fetches for a run of outer
// tuples, so the inner relation's selection runs as one Select over all of
// them rather than one call per outer tuple. Postings are copied, never
// written: they belong to the index.
type fetchBatch struct {
	fetched []int32 // fetched inner rows, in outer-tuple order
	outer   []int32 // outer ordinal of each fetched row
	passed  []int32 // the fetched rows that pass the selection
}

func (fb *fetchBatch) add(li int32, postings []int32) {
	fb.fetched = append(fb.fetched, postings...)
	for range postings {
		fb.outer = append(fb.outer, li)
	}
}

// filter applies the selection to the batch, appends every fetched pair
// that passes it and the residual predicates to (lIdx, rRows) in fetch
// order, and empties the batch. passed is the subsequence of fetched whose
// rows pass; since equal row ids pass or fail alike, matching it greedily
// against fetched recovers each survivor's outer tuple exactly.
func (fb *fetchBatch) filter(f *query.Filter, res []boundResidual, lIdx, rRows []int32) ([]int32, []int32) {
	fb.passed = f.Select(fb.passed[:0], fb.fetched)
	k := 0
	for p, r := range fb.fetched {
		if k == len(fb.passed) {
			break
		}
		if fb.passed[k] != r {
			continue
		}
		k++
		if li := fb.outer[p]; checkResiduals(res, int(li), int(r)) {
			lIdx = append(lIdx, li)
			rRows = append(rRows, r)
		}
	}
	fb.fetched, fb.outer = fb.fetched[:0], fb.outer[:0]
	return lIdx, rRows
}

// nestedLoop is the classic O(n*m) join the optimizer can disable. The
// inner side's key values and NULL flags are gathered once into flat
// vectors, so the quadratic pair loop compares registers instead of
// chasing row ids through the column — the metered work (every pair is
// compared: this loop is the risk of §4.1) is unchanged.
func (ex *executor) nestedLoop(n *plan.Node, live query.BitSet, id int) (*batch, error) {
	jc, err := ex.condition(n)
	if err != nil {
		return nil, err
	}
	leftLive, rightLive := childLive(jc, live)
	left, err := ex.exec(n.Left, leftLive, plan.LeftChildID(id))
	if err != nil {
		return nil, err
	}
	right, err := ex.exec(n.Right, rightLive, n.RightChildID(id))
	if err != nil {
		return nil, err
	}
	em := newEmitter(ex.sc, left, right, live, n.ECard)
	res := bindResiduals(jc, left, right)
	lRows := left.colOf(jc.buildRel)
	rRows := right.colOf(jc.probeRel)

	innerV := ex.sc.innerV[:0]
	innerN := ex.sc.innerN[:0]
	pCol := jc.probeCol
	for _, row := range rRows {
		innerV = append(innerV, pCol.Ints[row])
		innerN = append(innerN, pCol.IsNull(int(row)))
	}

	lIdx, rIdx := ex.sc.lIdx[:0], ex.sc.rIdx[:0]
	bCol := jc.buildCol
	m := int64(len(rRows))
	for base := 0; base < len(lRows); base += ex.block {
		end := min(base+ex.block, len(lRows))
		var w int64
		lIdx, rIdx = lIdx[:0], rIdx[:0]
		for li := base; li < end; li++ {
			row := lRows[li]
			// Every pair is compared.
			w += m
			if bCol.IsNull(int(row)) {
				continue
			}
			lVal := bCol.Ints[row]
			for ri := range innerV {
				if innerN[ri] || innerV[ri] != lVal {
					continue
				}
				if !checkResiduals(res, li, ri) {
					continue
				}
				lIdx = append(lIdx, int32(li))
				rIdx = append(rIdx, int32(ri))
				w++
			}
		}
		em.emitBlock(left, right, lIdx, rIdx)
		if err := ex.charge(id, w); err != nil {
			return nil, err
		}
	}
	ex.sc.innerV, ex.sc.innerN = innerV[:0], innerN[:0]
	ex.sc.lIdx, ex.sc.rIdx = lIdx[:0], rIdx[:0]
	ex.release(left)
	ex.release(right)
	return em.batch(), nil
}

// sortMerge sorts both inputs on the key and merges.
func (ex *executor) sortMerge(n *plan.Node, live query.BitSet, id int) (*batch, error) {
	jc, err := ex.condition(n)
	if err != nil {
		return nil, err
	}
	leftLive, rightLive := childLive(jc, live)
	left, err := ex.exec(n.Left, leftLive, plan.LeftChildID(id))
	if err != nil {
		return nil, err
	}
	right, err := ex.exec(n.Right, rightLive, n.RightChildID(id))
	if err != nil {
		return nil, err
	}

	sortSide := func(buf []keyed, b *batch, rel int, col *storage.Column) ([]keyed, error) {
		rows := b.colOf(rel)
		ks := buf[:0]
		for i, row := range rows {
			if col.IsNull(int(row)) {
				continue
			}
			ks = append(ks, keyed{col.Ints[row], int32(i)})
		}
		n := len(ks)
		if n > 1 {
			if err := ex.charge(id, int64(float64(n)*math.Log2(float64(n)))); err != nil {
				return nil, err
			}
		}
		slices.SortFunc(ks, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		return ks, nil
	}
	lk, err := sortSide(ex.sc.keysL, left, jc.buildRel, jc.buildCol)
	if err != nil {
		return nil, err
	}
	rk, err := sortSide(ex.sc.keysR, right, jc.probeRel, jc.probeCol)
	if err != nil {
		return nil, err
	}
	if err := ex.charge(id, int64(len(lk)+len(rk))); err != nil {
		return nil, err
	}

	em := newEmitter(ex.sc, left, right, live, n.ECard)
	res := bindResiduals(jc, left, right)
	lIdx, rIdx := ex.sc.lIdx[:0], ex.sc.rIdx[:0]
	var w int64
	flush := func() error {
		em.emitBlock(left, right, lIdx, rIdx)
		lIdx, rIdx = lIdx[:0], rIdx[:0]
		err := ex.charge(id, w)
		w = 0
		return err
	}
	i, j := 0, 0
	for i < len(lk) && j < len(rk) {
		switch {
		case lk[i].key < rk[j].key:
			i++
		case lk[i].key > rk[j].key:
			j++
		default:
			key := lk[i].key
			i2 := i
			for i2 < len(lk) && lk[i2].key == key {
				i2++
			}
			j2 := j
			for j2 < len(rk) && rk[j2].key == key {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					w++
					if !checkResiduals(res, int(lk[a].i), int(rk[b].i)) {
						continue
					}
					lIdx = append(lIdx, lk[a].i)
					rIdx = append(rIdx, rk[b].i)
				}
				// Settle per block of compared pairs, not per pair: the
				// group cross product is where merge work concentrates.
				if len(lIdx) >= ex.block || w >= int64(ex.block) {
					if err := flush(); err != nil {
						return nil, err
					}
				}
			}
			i, j = i2, j2
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	ex.sc.keysL, ex.sc.keysR = lk[:0], rk[:0]
	ex.sc.lIdx, ex.sc.rIdx = lIdx[:0], rIdx[:0]
	ex.release(left)
	ex.release(right)
	return em.batch(), nil
}
