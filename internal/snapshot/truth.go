package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"jobench/internal/query"
	"jobench/internal/truecard"
)

// sqlHash fingerprints one query's text. Truth files carry it so a store
// saved for a user-registered query id can never be replayed against a
// different query that reuses the id (the workload hash in the cache key
// only covers the built-in workload).
func sqlHash(sql string) string {
	sum := sha256.Sum256([]byte(sql))
	return hex.EncodeToString(sum[:8])
}

// EncodeTruth serializes one query's true-cardinality store.
func EncodeTruth(st *truecard.Store, fingerprint string) []byte {
	return encodeTruthDump(st.G, st.Dump(), fingerprint)
}

// encodeTruthDump serializes a Dump computed over graph g.
func encodeTruthDump(g *query.Graph, d truecard.Dump, fingerprint string) []byte {
	var e enc
	e.str(g.Q.ID)
	e.str(sqlHash(g.Q.SQL()))
	e.u32(uint32(g.N))
	e.u32(uint32(d.MaxSize))
	e.u64(uint64(len(d.Cards)))
	for _, c := range d.Cards {
		e.u64(uint64(c.S))
		e.f64(c.Card)
	}
	e.u64(uint64(len(d.Sans)))
	for _, s := range d.Sans {
		e.u64(uint64(s.S))
		e.u32(uint32(s.Rel))
		e.f64(s.Card)
	}
	return frame(kindTruth, fingerprint, e.b)
}

// DecodeTruth rebuilds a truth store against graph g, verifying that the
// file was written for the same query (id, SQL text, relation count)
// before trusting any cardinality in it.
func DecodeTruth(data []byte, fingerprint string, g *query.Graph) (*truecard.Store, error) {
	payload, err := unframe(data, kindTruth, fingerprint)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	qid := d.str()
	qhash := d.str()
	n := int(d.u32())
	dump := truecard.Dump{MaxSize: int(d.u32())}
	nCards := d.count(16)
	for i := 0; i < nCards && d.err == nil; i++ {
		dump.Cards = append(dump.Cards, truecard.CardEntry{
			S: query.BitSet(d.u64()), Card: d.f64(),
		})
	}
	nSans := d.count(20)
	for i := 0; i < nSans && d.err == nil; i++ {
		dump.Sans = append(dump.Sans, truecard.SansEntry{
			S: query.BitSet(d.u64()), Rel: int(d.u32()), Card: d.f64(),
		})
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if qid != g.Q.ID {
		return nil, fmt.Errorf("snapshot: truth store for query %q, want %q", qid, g.Q.ID)
	}
	if h := sqlHash(g.Q.SQL()); qhash != h {
		return nil, fmt.Errorf("snapshot: truth store for query %q was computed from different SQL text", qid)
	}
	if n != g.N {
		return nil, fmt.Errorf("snapshot: truth store has %d relations, graph has %d", n, g.N)
	}
	return truecard.FromDump(g, dump)
}
