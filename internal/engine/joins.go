package engine

import (
	"fmt"

	"jobench/internal/hashtab"
	"jobench/internal/plan"
	"jobench/internal/query"
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
// (§2.4), which is also why its cost uses the unfiltered intermediate. The
// probe is truecard's: key residuals are checked once per outer tuple, a
// dense index resolves inline, and the selection is a cached bitmap over
// the inner table, so a fetched row costs one bit test.
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
	sel, err := ex.selection(rRel, t)
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

	// The emitter's right side is the base relation itself: emitted right
	// values are base row ids, not batch ordinals.
	em := newEmitter(ex.sc, left, &batch{rels: []int{rRel}}, live, n.ECard)
	pass := sel.bitmap(ex.sc, t.NumRows())
	// Every posting carries the lookup key in the index column, and never
	// NULL, so a residual on that column holds for all of a lookup's
	// postings or for none: keyRes is checked once per outer tuple, res per
	// fetched row.
	res := bindResiduals(jc, left, nil)
	nKey := 0
	for i := range res {
		if res[i].rCol == jc.probeCol {
			res[nKey], res[i] = res[i], res[nKey]
			nKey++
		}
	}
	keyRes, res := res[:nKey], res[nKey:]
	dv, dense := idx.DenseView()
	outerRows := left.colOf(jc.buildRel)
	oCol := jc.buildCol
	lIdx, rRows := ex.sc.lIdx[:0], ex.sc.rIdx[:0]
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
			key := oCol.Ints[row]
			var postings []int32
			if dense {
				postings = dv.Lookup(key)
			} else {
				postings = idx.Lookup(key)
			}
			// Random access into the index plus one unit per fetched tuple,
			// whether or not the tuple then survives a residual or the
			// selection.
			w += RandomAccessFactor + int64(len(postings))
			if !keyResidualsHold(keyRes, li, key) {
				continue
			}
			for _, r := range postings {
				if pass[r>>6]&(1<<(r&63)) != 0 && (len(res) == 0 || checkResiduals(res, li, int(r))) {
					lIdx = append(lIdx, int32(li))
					rRows = append(rRows, r)
				}
			}
		}
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

// keyResidualsHold reports whether outer tuple li carries a non-NULL value
// equal to the lookup key in every residual on the index column.
func keyResidualsHold(res []boundResidual, li int, key int64) bool {
	for k := range res {
		rp := &res[k]
		if lRow := int(rp.lRows[li]); rp.lCol.IsNull(lRow) || rp.lCol.Ints[lRow] != key {
			return false
		}
	}
	return true
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
