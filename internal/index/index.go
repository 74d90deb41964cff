// Package index provides the unclustered secondary indexes used by the
// execution engine and the optimizer: hash indexes for equality lookups,
// the one index kind the physical designs build. An index maps a key value
// to the row ids holding it; NULL rows are never indexed, matching SQL
// semantics for equi-joins.
package index

import (
	"fmt"
	"slices"

	"jobench/internal/hashtab"
	"jobench/internal/storage"
)

// Hash is a hash-based index, backed by the flat grouped postings of
// internal/hashtab: all row ids live in one contiguous arena grouped by
// key, and a lookup is one flat-hash probe instead of a Go map access.
// Surrogate keys almost always resolve densely instead, through a direct
// offset table; the engine's index-nested-loop join, whose lookups are the
// single hottest operation of a PK+FK plan, then reads that table inline
// through DenseView.
type Hash struct {
	p      *hashtab.Postings
	unique bool
}

// BuildHash builds a hash index over col. If unique is true, duplicate keys
// cause an error (primary key violation).
func BuildHash(col *storage.Column, unique bool) (*Hash, error) {
	keys := make([]int64, 0, col.Len())
	rows := make([]int32, 0, col.Len())
	for i, v := range col.Ints {
		if col.IsNull(i) {
			continue
		}
		keys = append(keys, v)
		rows = append(rows, int32(i))
	}
	h := &Hash{p: hashtab.BuildPostings(keys, rows), unique: unique}
	if unique && h.p.Keys() != h.p.Len() {
		for g := 0; g < h.p.Keys(); g++ {
			if k, vs := h.p.Group(g); len(vs) > 1 {
				return nil, fmt.Errorf("index: duplicate key %d in unique index on %q", k, col.Name)
			}
		}
	}
	return h, nil
}

// Lookup returns the row ids whose key equals v. The returned slice must
// not be modified.
func (h *Hash) Lookup(v int64) []int32 { return h.p.Lookup(v) }

// DenseView returns the index's dense resolution arrays (see
// hashtab.DenseView), or ok=false when its keys resolve by hashing.
func (h *Hash) DenseView() (hashtab.DenseView, bool) { return h.p.DenseView() }

// Len returns the number of indexed (non-NULL) rows.
func (h *Hash) Len() int { return h.p.Len() }

// Unique reports whether the index was declared unique (primary key).
func (h *Hash) Unique() bool { return h.unique }

// DistinctKeys returns the number of distinct keys in the index.
func (h *Hash) DistinctKeys() int { return h.p.Keys() }

// Postings returns the index contents in deterministic order: keys
// ascending, each with its row-id list (rows within a key are in insertion
// order, i.e. ascending, since BuildHash scans the column front to back).
// It is the serialization surface of the snapshot store.
func (h *Hash) Postings() (keys []int64, rows [][]int32) {
	n := h.p.Keys()
	keys = make([]int64, 0, n)
	for g := 0; g < n; g++ {
		k, _ := h.p.Group(g)
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rows = make([][]int32, len(keys))
	for i, k := range keys {
		rows[i] = h.p.Lookup(k)
	}
	return keys, rows
}

// RestoreHash rebuilds a hash index from Postings-shaped input (the inverse
// of Postings, used when loading an index snapshot). It validates the
// structural invariants BuildHash would have established: keys strictly
// ascending (no duplicates), every key holding at least one row, and at
// most one row per key for unique indexes. Row-id bounds are the caller's
// to check — the index does not know its table.
func RestoreHash(keys []int64, rows [][]int32, unique bool) (*Hash, error) {
	if len(keys) != len(rows) {
		return nil, fmt.Errorf("index: %d keys but %d posting lists", len(keys), len(rows))
	}
	total := 0
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			return nil, fmt.Errorf("index: keys not strictly ascending at %d (%d after %d)", i, k, keys[i-1])
		}
		if len(rows[i]) == 0 {
			return nil, fmt.Errorf("index: key %d has no rows", k)
		}
		if unique && len(rows[i]) > 1 {
			return nil, fmt.Errorf("index: duplicate key %d in unique index", k)
		}
		total += len(rows[i])
	}
	flatKeys := make([]int64, 0, total)
	flatRows := make([]int32, 0, total)
	for i, k := range keys {
		for _, r := range rows[i] {
			flatKeys = append(flatKeys, k)
			flatRows = append(flatRows, r)
		}
	}
	return &Hash{p: hashtab.BuildPostings(flatKeys, flatRows), unique: unique}, nil
}
