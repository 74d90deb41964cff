package snapshot

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

// ---- equality helpers -------------------------------------------------

// columnsEqual compares the observable behavior of two columns: kind,
// per-row values and NULLs, and the dictionary (including Code lookups).
func columnsEqual(t *testing.T, table string, a, b *storage.Column) error {
	t.Helper()
	if a.Name != b.Name || a.Kind != b.Kind || a.Len() != b.Len() {
		return fmt.Errorf("%s.%s: shape mismatch (%s/%d vs %s/%d)", table, a.Name, a.Kind, a.Len(), b.Kind, b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) != b.IsNull(i) {
			return fmt.Errorf("%s.%s: row %d null mismatch", table, a.Name, i)
		}
		if a.IsNull(i) {
			continue
		}
		if a.Int(i) != b.Int(i) {
			return fmt.Errorf("%s.%s: row %d value %d vs %d", table, a.Name, i, a.Int(i), b.Int(i))
		}
		if a.Kind == storage.KindString && a.StringAt(i) != b.StringAt(i) {
			return fmt.Errorf("%s.%s: row %d string %q vs %q", table, a.Name, i, a.StringAt(i), b.StringAt(i))
		}
	}
	if a.DictSize() != b.DictSize() {
		return fmt.Errorf("%s.%s: dict size %d vs %d", table, a.Name, a.DictSize(), b.DictSize())
	}
	for _, s := range a.Dict {
		ca, oka := a.Code(s)
		cb, okb := b.Code(s)
		if oka != okb || ca != cb {
			return fmt.Errorf("%s.%s: code of %q: (%d,%v) vs (%d,%v)", table, a.Name, s, ca, oka, cb, okb)
		}
	}
	return nil
}

func databasesEqual(t *testing.T, a, b *storage.Database) error {
	t.Helper()
	an, bn := a.TableNames(), b.TableNames()
	if !reflect.DeepEqual(an, bn) {
		return fmt.Errorf("table names %v vs %v", an, bn)
	}
	for _, name := range an {
		ta, tb := a.Table(name), b.Table(name)
		if len(ta.Cols) != len(tb.Cols) {
			return fmt.Errorf("table %s: %d vs %d columns", name, len(ta.Cols), len(tb.Cols))
		}
		for i := range ta.Cols {
			if err := columnsEqual(t, name, ta.Cols[i], tb.Cols[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func i32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func i64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func statsEqual(t *testing.T, a, b *stats.DB) error {
	t.Helper()
	if len(a.Tables) != len(b.Tables) {
		return fmt.Errorf("stats: %d vs %d tables", len(a.Tables), len(b.Tables))
	}
	for name, ta := range a.Tables {
		tb := b.Tables[name]
		if tb == nil {
			return fmt.Errorf("stats: missing table %s", name)
		}
		if ta.Table != tb.Table || ta.RowCount != tb.RowCount || !i32sEqual(ta.SampleRows, tb.SampleRows) {
			return fmt.Errorf("stats %s: header mismatch", name)
		}
		if len(ta.Cols) != len(tb.Cols) {
			return fmt.Errorf("stats %s: %d vs %d columns", name, len(ta.Cols), len(tb.Cols))
		}
		for col, ca := range ta.Cols {
			cb := tb.Cols[col]
			if cb == nil {
				return fmt.Errorf("stats %s: missing column %s", name, col)
			}
			if ca.Col != cb.Col || ca.IsString != cb.IsString || ca.RowCount != cb.RowCount ||
				ca.NullFrac != cb.NullFrac || ca.NDistinct != cb.NDistinct ||
				ca.TrueDistinct != cb.TrueDistinct || ca.MCVFrac != cb.MCVFrac ||
				ca.Lo != cb.Lo || ca.Hi != cb.Hi {
				return fmt.Errorf("stats %s.%s: scalar mismatch: %+v vs %+v", name, col, ca, cb)
			}
			if len(ca.MCVs) != len(cb.MCVs) {
				return fmt.Errorf("stats %s.%s: %d vs %d MCVs", name, col, len(ca.MCVs), len(cb.MCVs))
			}
			for i := range ca.MCVs {
				if ca.MCVs[i] != cb.MCVs[i] {
					return fmt.Errorf("stats %s.%s: MCV %d mismatch", name, col, i)
				}
				// The rebuilt lookup index must answer like the original.
				fa, oka := ca.MCVFracOf(ca.MCVs[i].Val)
				fb, okb := cb.MCVFracOf(ca.MCVs[i].Val)
				if fa != fb || oka != okb {
					return fmt.Errorf("stats %s.%s: MCVFracOf(%d) mismatch", name, col, ca.MCVs[i].Val)
				}
			}
			if !i64sEqual(ca.Hist, cb.Hist) {
				return fmt.Errorf("stats %s.%s: histogram mismatch", name, col)
			}
		}
	}
	return nil
}

// ---- round-trip property tests (testing/quick) ------------------------

// TestQuickColumnRoundTrip drives random int and dictionary-string columns
// (with NULLs) through a full database encode/decode.
func TestQuickColumnRoundTrip(t *testing.T) {
	f := func(ints []int64, intNulls []bool, words []uint8, strNulls []bool) bool {
		ic := storage.NewIntColumn("v")
		for i, v := range ints {
			if i < len(intNulls) && intNulls[i] {
				ic.AppendNull()
			} else {
				ic.AppendInt(v)
			}
		}
		sc := storage.NewStringColumn("s")
		for i, w := range words {
			if i < len(strNulls) && strNulls[i] {
				sc.AppendNull()
			} else {
				// A 7-word alphabet forces dictionary code reuse.
				sc.AppendString(fmt.Sprintf("w%d", w%7))
			}
		}
		db := storage.NewDatabase()
		db.Add(storage.NewTable("a", ic))
		db.Add(storage.NewTable("b", sc))
		data, err := EncodeDatabase(db, "fp", 1)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := DecodeDatabase(data, "fp", 1)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if err := databasesEqual(t, db, got); err != nil {
			t.Logf("mismatch: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStatsRoundTrip analyzes random tables and round-trips the
// resulting statistics.
func TestQuickStatsRoundTrip(t *testing.T) {
	f := func(vals []int16, nulls []bool, seed int64) bool {
		col := storage.NewIntColumn("x")
		for i, v := range vals {
			if i < len(nulls) && nulls[i] {
				col.AppendNull()
			} else {
				// Small domain so MCVs actually appear.
				col.AppendInt(int64(v % 11))
			}
		}
		tbl := storage.NewTable("t", col)
		sdb := &stats.DB{Tables: map[string]*stats.TableStats{
			"t": stats.Analyze(tbl, stats.Options{SampleSize: 40, MCVTarget: 5, HistBuckets: 4, Seed: seed}),
		}}
		got, err := DecodeStats(EncodeStats(sdb, "fp"), "fp")
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if err := statsEqual(t, sdb, got); err != nil {
			t.Logf("mismatch: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTruthRoundTrip round-trips random truth-store contents against
// a real workload join graph.
func TestQuickTruthRoundTrip(t *testing.T) {
	g := query.MustBuildGraph(job.Workload()[0])
	full := query.FullSet(g.N)
	f := func(cards []uint64, sans []uint64, maxSize uint8) bool {
		d := truecard.Dump{MaxSize: 1 + int(maxSize)%g.N}
		seenCards := make(map[query.BitSet]bool)
		for _, raw := range cards {
			s := query.BitSet(raw) & full
			if s.Empty() || seenCards[s] {
				continue
			}
			seenCards[s] = true
			d.Cards = append(d.Cards, truecard.CardEntry{S: s, Card: float64(raw % 1e9)})
		}
		type sk struct {
			s query.BitSet
			r int
		}
		seenSans := make(map[sk]bool)
		for _, raw := range sans {
			r := int(raw>>32) % g.N
			s := (query.BitSet(raw) & full).Add(r)
			if seenSans[sk{s, r}] {
				continue
			}
			seenSans[sk{s, r}] = true
			d.Sans = append(d.Sans, truecard.SansEntry{S: s, Rel: r, Card: float64(raw % 1e6)})
		}
		st, err := truecard.FromDump(g, d)
		if err != nil {
			t.Logf("fromdump: %v", err)
			return false
		}
		got, err := DecodeTruth(EncodeTruth(st, "fp"), "fp", g)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if !reflect.DeepEqual(st.Dump(), got.Dump()) {
			t.Logf("dump mismatch")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeTruthRejectsInvalidEntries: a well-framed truth file whose
// entries no Compute could write (a sans relation outside its subgraph, a
// NaN, infinite or negative count) is rejected with an error, while the
// same file with valid entries decodes.
func TestDecodeTruthRejectsInvalidEntries(t *testing.T) {
	g := query.MustBuildGraph(job.Workload()[0])
	ab := query.NewBitSet(0, 1)
	valid := truecard.Dump{
		MaxSize: g.N,
		Cards:   []truecard.CardEntry{{S: query.Bit(0), Card: 3}, {S: ab, Card: 0}},
		Sans:    []truecard.SansEntry{{S: ab, Rel: 1, Card: 7}},
	}
	if _, err := DecodeTruth(encodeTruthDump(g, valid, "fp"), "fp", g); err != nil {
		t.Fatalf("valid entries rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(d *truecard.Dump)
	}{
		{"sans-rel-not-in-subgraph", func(d *truecard.Dump) { d.Sans[0].Rel = 2 }},
		{"sans-rel-out-of-range", func(d *truecard.Dump) { d.Sans[0].Rel = g.N }},
		{"card-nan", func(d *truecard.Dump) { d.Cards[0].Card = math.NaN() }},
		{"card-inf", func(d *truecard.Dump) { d.Cards[1].Card = math.Inf(1) }},
		{"card-neg-inf", func(d *truecard.Dump) { d.Cards[1].Card = math.Inf(-1) }},
		{"card-negative", func(d *truecard.Dump) { d.Cards[0].Card = -1 }},
		{"sans-nan", func(d *truecard.Dump) { d.Sans[0].Card = math.NaN() }},
		{"sans-inf", func(d *truecard.Dump) { d.Sans[0].Card = math.Inf(1) }},
		{"sans-negative", func(d *truecard.Dump) { d.Sans[0].Card = -0.5 }},
	}
	for _, tc := range cases {
		d := valid
		d.Cards = slices.Clone(valid.Cards)
		d.Sans = slices.Clone(valid.Sans)
		tc.edit(&d)
		if _, err := truecard.FromDump(g, d); err == nil {
			t.Errorf("%s: FromDump accepted the entry", tc.name)
		}
		if _, err := DecodeTruth(encodeTruthDump(g, d, "fp"), "fp", g); err == nil {
			t.Errorf("%s: DecodeTruth accepted the file", tc.name)
		}
	}
}

// TestRoundTripAtScales drives generated databases at multiple scales —
// including their statistics and real computed truth stores — through the
// codec, with the parallel per-table fan-out enabled.
func TestRoundTripAtScales(t *testing.T) {
	scales := []float64{0.02, 0.06}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		t.Run(fmt.Sprintf("scale=%g", scale), func(t *testing.T) {
			db := imdb.Generate(imdb.Config{Scale: scale, Seed: 42})
			data, err := EncodeDatabase(db, "fp", 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeDatabase(data, "fp", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := databasesEqual(t, db, got); err != nil {
				t.Fatal(err)
			}

			sdb := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 500, MCVTarget: 100, HistBuckets: 100, Seed: 42})
			gotStats, err := DecodeStats(EncodeStats(sdb, "fp"), "fp")
			if err != nil {
				t.Fatal(err)
			}
			if err := statsEqual(t, sdb, gotStats); err != nil {
				t.Fatal(err)
			}

			for _, q := range job.Workload()[:3] {
				g := query.MustBuildGraph(q)
				st, err := truecard.Compute(db, g, truecard.Options{})
				if err != nil {
					t.Fatal(err)
				}
				gotSt, err := DecodeTruth(EncodeTruth(st, "fp"), "fp", g)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st.Dump(), gotSt.Dump()) {
					t.Fatalf("%s: truth dump mismatch after round trip", q.ID)
				}
				full := query.FullSet(g.N)
				want, _ := st.Card(full)
				gotCard, ok := gotSt.Card(full)
				if !ok || gotCard != want {
					t.Fatalf("%s: full-query cardinality %v (ok=%v), want %v", q.ID, gotCard, ok, want)
				}
			}
		})
	}
}

// TestUnframeRejections proves the envelope catches every tampering mode
// with a descriptive error.
func TestUnframeRejections(t *testing.T) {
	payload := []byte("hello payload")
	good := frame(kindDatabase, "fp", payload)
	if got, err := unframe(good, kindDatabase, "fp"); err != nil || string(got) != string(payload) {
		t.Fatalf("good frame failed: %v", err)
	}

	cases := []struct {
		name string
		data []byte
		fp   string
	}{
		{"empty", nil, "fp"},
		{"truncated-header", good[:6], "fp"},
		{"truncated-payload", good[:len(good)-6], "fp"},
		{"bad-magic", append([]byte("XXXX"), good[4:]...), "fp"},
		{"flipped-payload-byte", flip(good, len(good)/2), "fp"},
		{"flipped-crc-byte", flip(good, len(good)-1), "fp"},
		{"version-bump", flip(good, 4), "fp"},
		{"wrong-kind", frame(kindStats, "fp", payload), "fp"},
		{"wrong-fingerprint", frame(kindDatabase, "other", payload), "fp"},
	}
	for _, tc := range cases {
		if _, err := unframe(tc.data, kindDatabase, tc.fp); err == nil {
			t.Errorf("%s: unframe accepted tampered input", tc.name)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x5a
	return out
}

// TestBitmapCountOverflowRejected pins the fix for a decoder panic: a
// null-bitmap count near 2^64 made (n+7)/8 wrap past the byte-bound check
// and panic makeslice. The decoder must reject it with an error.
func TestBitmapCountOverflowRejected(t *testing.T) {
	var e enc
	e.str("t")
	e.u32(1)
	e.str("c")
	e.u8(byte(storage.KindInt))
	e.i64s([]int64{1})
	e.u32(0)          // empty dictionary
	e.u8(1)           // has-nulls flag
	e.u64(^uint64(6)) // 0xFFFF_FFFF_FFFF_FFF9: (n+7)/8 wraps to 0
	if _, err := decodeTable(e.b); err == nil {
		t.Fatal("decoder accepted a wrapping bitmap count")
	}
}

// TestStoreMissVsCorruption pins the ErrMiss contract Load callers build
// their regenerate-or-warn decision on.
func TestStoreMissVsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := New(dir, Key{World: workload.Key{Workload: "w", Seed: 1, Scale: 0.01}}, 1)

	if _, err := s.LoadDatabase(); !IsMiss(err) {
		t.Fatalf("empty cache: want miss, got %v", err)
	}
	db := storage.NewDatabase()
	c := storage.NewIntColumn("id")
	c.AppendInt(7)
	db.Add(storage.NewTable("t", c))
	if err := s.SaveDatabase(db); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadDatabase(); err != nil {
		t.Fatalf("load after save: %v", err)
	}

	// A store with a different key must not see the snapshot.
	other := New(dir, Key{World: workload.Key{Workload: "w", Seed: 2, Scale: 0.01}}, 1)
	if _, err := other.LoadDatabase(); !IsMiss(err) {
		t.Fatalf("different key: want miss, got %v", err)
	}

	infos, err := Inspect(dir)
	if err != nil || len(infos) != 1 {
		t.Fatalf("inspect: %v, %d infos", err, len(infos))
	}
	if !infos[0].HasDatabase || infos[0].Manifest.Seed != 1 {
		t.Fatalf("inspect content wrong: %+v", infos[0])
	}

	removed, err := Clear(dir, "")
	if err != nil || removed != 1 {
		t.Fatalf("clear: %v, removed %d", err, removed)
	}
	if _, err := s.LoadDatabase(); !IsMiss(err) {
		t.Fatalf("after clear: want miss, got %v", err)
	}
}
