package snapshot

import (
	"math"
	"testing"

	"jobench/internal/job"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
)

// FuzzDecodeSnapshot throws arbitrary bytes at all three decoders. The
// contract under test: truncated, corrupted, version-bumped, or otherwise
// hostile input is rejected with an error — never a panic, never an
// out-of-range access — and anything a decoder does accept satisfies the
// decoded type's own invariants.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed with one valid file of each kind so mutation starts from
	// structurally interesting bytes.
	db := storage.NewDatabase()
	ic := storage.NewIntColumn("id")
	ic.AppendInt(1)
	ic.AppendNull()
	sc := storage.NewStringColumn("name")
	sc.AppendString("alpha")
	sc.AppendString("beta")
	db.Add(storage.NewTable("t", ic))
	sc2 := storage.NewTable("u", sc)
	db.Add(sc2)
	dbBytes, err := EncodeDatabase(db, "fp", 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dbBytes)

	sdb := &stats.DB{Tables: map[string]*stats.TableStats{
		"t": stats.Analyze(db.Table("t"), stats.Options{SampleSize: 10, MCVTarget: 3, HistBuckets: 2, Seed: 1}),
	}}
	f.Add(EncodeStats(sdb, "fp"))

	g := query.MustBuildGraph(job.Workload()[0])
	st, err := truecard.FromDump(g, truecard.Dump{
		MaxSize: g.N,
		Cards:   []truecard.CardEntry{{S: query.Bit(0), Card: 3}, {S: query.FullSet(g.N), Card: 9}},
		Sans:    []truecard.SansEntry{{S: query.Bit(1), Rel: 1, Card: 4}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeTruth(st, "fp"))

	// A few hostile variants: truncation, bit flips, version bump.
	f.Add(dbBytes[:len(dbBytes)/2])
	f.Add(flip(dbBytes, len(dbBytes)/3))
	f.Add(flip(dbBytes, 4))
	f.Add([]byte("JBSN"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := DecodeDatabase(data, "", 1); err == nil {
			if cerr := got.Check(); cerr != nil {
				t.Fatalf("accepted database violates invariants: %v", cerr)
			}
			for _, name := range got.TableNames() {
				tbl := got.Table(name)
				for _, col := range tbl.Cols {
					for i := 0; i < col.Len(); i++ {
						if col.Kind == storage.KindString {
							col.StringAt(i) // must not panic on any accepted input
						} else if !col.IsNull(i) {
							col.Int(i)
						}
					}
				}
			}
		}
		if got, err := DecodeStats(data, ""); err == nil {
			for _, ts := range got.Tables {
				for _, cs := range ts.Cols {
					cs.HistFracLE(0)
					cs.MCVFracOf(0)
				}
			}
		}
		if got, err := DecodeTruth(data, "", g); err == nil {
			got.Card(query.Bit(0))
			got.SansSelection(query.Bit(1), 1)
			got.NumSubgraphs()
			d := got.Dump()
			for _, e := range d.Cards {
				if !(e.Card >= 0) || math.IsInf(e.Card, 1) {
					t.Fatalf("accepted card %g for %v", e.Card, e.S)
				}
			}
			for _, e := range d.Sans {
				if !e.S.Has(e.Rel) || !(e.Card >= 0) || math.IsInf(e.Card, 1) {
					t.Fatalf("accepted sans(%v, %d) = %g", e.S, e.Rel, e.Card)
				}
			}
		}
	})
}
