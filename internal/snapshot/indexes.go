package snapshot

import (
	"context"
	"fmt"

	"jobench/internal/index"
	"jobench/internal/parallel"
	"jobench/internal/storage"
)

// The index snapshots persist the three physical designs (none / PK /
// PK+FK) so a warm Open skips index construction — after the database,
// statistics, and truth stores, index builds are the last big cold-start
// cost. Each design is one file holding every (table, column) hash index
// as sorted postings: keys ascending, each with a length-prefixed run of
// row ids, flattened so decoding performs one allocation per index rather
// than one per row.

// EncodeIndexes serializes an index set.
func EncodeIndexes(set *index.Set, fingerprint string, workers int) ([]byte, error) {
	items := set.Items()
	blobs, err := parallel.RunCells(context.Background(), workers, items,
		func(_ context.Context, it index.Item) ([]byte, error) {
			return encodeHashIndex(it), nil
		})
	if err != nil {
		return nil, err
	}
	var e enc
	e.u32(uint32(len(items)))
	for _, b := range blobs {
		e.bytes(b)
	}
	return frame(kindIndexes, fingerprint, e.b), nil
}

func encodeHashIndex(it index.Item) []byte {
	h := it.Index
	keys, rows := h.Postings()
	var e enc
	e.str(it.Table)
	e.str(it.Column)
	if h.Unique() {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.i64s(keys)
	lens := make([]int32, len(rows))
	total := 0
	for i, r := range rows {
		lens[i] = int32(len(r))
		total += len(r)
	}
	e.i32s(lens)
	flat := make([]int32, 0, total)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	e.i32s(flat)
	return e.b
}

// DecodeIndexes rebuilds an index set from EncodeIndexes output, validating
// every structural invariant against db: known tables and columns, row ids
// in range, posting lists consistent with their length table, unique
// indexes with single-row postings. Like every snapshot decoder it returns
// an error on untrustworthy input, never panics.
func DecodeIndexes(data []byte, fingerprint string, db *storage.Database, workers int) (*index.Set, error) {
	payload, err := unframe(data, kindIndexes, fingerprint)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(payload)) {
		d.fail("index count %d exceeds payload size", n)
	}
	blobs := make([][]byte, 0, n)
	for i := 0; i < int(n) && d.err == nil; i++ {
		blobs = append(blobs, d.bytes())
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	items, err := parallel.RunCells(context.Background(), workers, blobs,
		func(_ context.Context, blob []byte) (decodedIndex, error) {
			return decodeHashIndex(blob, db)
		})
	if err != nil {
		return nil, err
	}
	set := index.NewSet()
	for _, it := range items {
		if set.Has(it.table, it.column) {
			return nil, fmt.Errorf("snapshot: duplicate index on %s.%s", it.table, it.column)
		}
		set.Add(it.table, it.column, it.idx)
	}
	return set, nil
}

// decodedIndex is one index rebuilt from its snapshot blob.
type decodedIndex struct {
	table, column string
	idx           *index.Hash
}

func decodeHashIndex(blob []byte, db *storage.Database) (out decodedIndex, err error) {
	d := &dec{b: blob}
	table := d.str()
	column := d.str()
	unique := d.u8() != 0
	keys := d.i64s()
	lens := d.i32s()
	flat := d.i32s()
	if err := d.done(); err != nil {
		return out, err
	}
	t := db.Table(table)
	if t == nil {
		return out, fmt.Errorf("snapshot: index on unknown table %q", table)
	}
	if t.Column(column) == nil {
		return out, fmt.Errorf("snapshot: index on unknown column %s.%s", table, column)
	}
	if len(lens) != len(keys) {
		return out, fmt.Errorf("snapshot: index %s.%s: %d keys but %d lengths", table, column, len(keys), len(lens))
	}
	numRows := t.NumRows()
	rows := make([][]int32, len(keys))
	off := 0
	for i, l := range lens {
		if l <= 0 || off+int(l) > len(flat) {
			return out, fmt.Errorf("snapshot: index %s.%s: posting list %d overruns flattened rows", table, column, i)
		}
		rows[i] = flat[off : off+int(l) : off+int(l)]
		off += int(l)
	}
	if off != len(flat) {
		return out, fmt.Errorf("snapshot: index %s.%s: %d trailing row ids", table, column, len(flat)-off)
	}
	for _, r := range flat {
		if r < 0 || int(r) >= numRows {
			return out, fmt.Errorf("snapshot: index %s.%s: row id %d out of range [0,%d)", table, column, r, numRows)
		}
	}
	idx, err := index.RestoreHash(keys, rows, unique)
	if err != nil {
		return out, fmt.Errorf("snapshot: index %s.%s: %w", table, column, err)
	}
	out.table, out.column, out.idx = table, column, idx
	return out, nil
}
