package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jobench/internal/storage"
)

func uniformTable(n int, distinct int64, seed int64) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	id := storage.NewIntColumn("id")
	val := storage.NewIntColumn("val")
	for i := 0; i < n; i++ {
		id.AppendInt(int64(i))
		val.AppendInt(rng.Int63n(distinct))
	}
	return storage.NewTable("u", id, val)
}

func TestAnalyzeUniformColumn(t *testing.T) {
	tbl := uniformTable(20000, 50, 7)
	ts := Analyze(tbl, Options{SampleSize: 5000, MCVTarget: 100, HistBuckets: 20, Seed: 1})
	cs := ts.Cols["val"]
	if cs == nil {
		t.Fatal("no stats for val")
	}
	if cs.NDistinct < 40 || cs.NDistinct > 60 {
		t.Fatalf("NDistinct = %g, want ~50", cs.NDistinct)
	}
	if cs.NullFrac != 0 {
		t.Fatalf("NullFrac = %g", cs.NullFrac)
	}
	// Uniform column: each MCV frequency should be near 1/50.
	for _, m := range cs.MCVs[:3] {
		if m.Frac < 0.005 || m.Frac > 0.06 {
			t.Fatalf("MCV frac %g implausible for uniform data", m.Frac)
		}
	}
}

func TestAnalyzeKeyColumnDistinct(t *testing.T) {
	tbl := uniformTable(50000, math.MaxInt64, 3) // id column is a dense key
	ts := Analyze(tbl, Options{SampleSize: 5000, Seed: 1})
	cs := ts.Cols["id"]
	// Duj1 on a unique column should estimate close to the table size.
	if cs.NDistinct < 25000 {
		t.Fatalf("NDistinct = %g, want close to 50000 for a key", cs.NDistinct)
	}
	if len(cs.MCVs) != 0 {
		t.Fatalf("key column has %d MCVs, want 0", len(cs.MCVs))
	}
}

func TestDuj1UnderestimatesSkewedDistinct(t *testing.T) {
	// Zipf-like column on a large table: a small sample sees mostly the
	// head, so Duj1 underestimates the true distinct count. This is the
	// paper's §3.4 premise.
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.4, 1, 200000)
	col := storage.NewIntColumn("z")
	truth := make(map[int64]struct{})
	for i := 0; i < 200000; i++ {
		v := int64(zipf.Uint64())
		col.AppendInt(v)
		truth[v] = struct{}{}
	}
	tbl := storage.NewTable("z", col)
	est := Analyze(tbl, Options{SampleSize: 5000, Seed: 1}).Cols["z"].NDistinct
	if est >= float64(len(truth)) {
		t.Fatalf("expected underestimation: est %g >= true %d", est, len(truth))
	}
	exact := Analyze(tbl, Options{SampleSize: 5000, Seed: 1, TrueDistinct: true}).Cols["z"]
	if exact.NDistinct != float64(len(truth)) {
		t.Fatalf("TrueDistinct = %g, want %d", exact.NDistinct, len(truth))
	}
}

func TestNullFraction(t *testing.T) {
	col := storage.NewIntColumn("x")
	for i := 0; i < 1000; i++ {
		if i%4 == 0 {
			col.AppendNull()
		} else {
			col.AppendInt(int64(i % 10))
		}
	}
	tbl := storage.NewTable("n", col)
	cs := Analyze(tbl, Options{SampleSize: 1000, Seed: 1}).Cols["x"]
	if math.Abs(cs.NullFrac-0.25) > 0.05 {
		t.Fatalf("NullFrac = %g, want ~0.25", cs.NullFrac)
	}
}

func TestMCVsCaptureSkew(t *testing.T) {
	col := storage.NewIntColumn("x")
	for i := 0; i < 10000; i++ {
		switch {
		case i%2 == 0:
			col.AppendInt(1) // 50%
		case i%4 == 1:
			col.AppendInt(2) // 25%
		default:
			col.AppendInt(int64(100 + i)) // long tail of singletons
		}
	}
	tbl := storage.NewTable("s", col)
	cs := Analyze(tbl, Options{SampleSize: 2000, MCVTarget: 10, Seed: 1}).Cols["x"]
	if len(cs.MCVs) == 0 || cs.MCVs[0].Val != 1 {
		t.Fatalf("top MCV = %+v, want value 1", cs.MCVs)
	}
	if math.Abs(cs.MCVs[0].Frac-0.5) > 0.08 {
		t.Fatalf("MCV frac = %g, want ~0.5", cs.MCVs[0].Frac)
	}
	if f, ok := cs.MCVFracOf(1); !ok || f != cs.MCVs[0].Frac {
		t.Fatal("MCVFracOf inconsistent")
	}
	if _, ok := cs.MCVFracOf(9999999); ok {
		t.Fatal("MCVFracOf found non-MCV")
	}
}

func TestHistFracLE(t *testing.T) {
	// Uniform values 0..999 with no repeats in sample -> pure histogram.
	col := storage.NewIntColumn("x")
	for i := 0; i < 1000; i++ {
		col.AppendInt(int64(i))
	}
	tbl := storage.NewTable("h", col)
	cs := Analyze(tbl, Options{SampleSize: 1000, HistBuckets: 10, Seed: 1}).Cols["x"]
	if len(cs.Hist) != 11 {
		t.Fatalf("histogram bounds = %d, want 11", len(cs.Hist))
	}
	for _, tc := range []struct {
		v    int64
		want float64
		tol  float64
	}{
		{-5, 0, 0}, {999, 1, 0}, {499, 0.5, 0.02}, {250, 0.25, 0.02},
	} {
		if got := cs.HistFracLE(tc.v); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("HistFracLE(%d) = %g, want %g±%g", tc.v, got, tc.want, tc.tol)
		}
	}
}

func TestHistFracLEWithoutHistogram(t *testing.T) {
	cs := &ColumnStats{Lo: 10, Hi: 19}
	if got := cs.HistFracLE(14); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("uniform fallback = %g", got)
	}
	if got := cs.HistFracLE(5); got != 0 {
		t.Fatalf("below range = %g", got)
	}
	single := &ColumnStats{Lo: 7, Hi: 7}
	if got := single.HistFracLE(7); got != 1 {
		t.Fatalf("singleton range = %g", got)
	}
}

// Property: HistFracLE is monotone and within [0,1] for arbitrary columns.
func TestHistFracMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		col := storage.NewIntColumn("x")
		for i := 0; i < int(n%500)+10; i++ {
			col.AppendInt(rng.Int63n(1000) - 500)
		}
		tbl := storage.NewTable("p", col)
		cs := Analyze(tbl, Options{SampleSize: 200, HistBuckets: 8, Seed: 1}).Cols["x"]
		prev := -1.0
		for v := int64(-600); v <= 600; v += 37 {
			f := cs.HistFracLE(v)
			if f < 0 || f > 1 || f < prev-1e-12 {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReservoirDeterministicAndUniform(t *testing.T) {
	tbl := uniformTable(10000, 100, 1)
	a := Analyze(tbl, Options{SampleSize: 500, Seed: 42})
	b := Analyze(tbl, Options{SampleSize: 500, Seed: 42})
	if len(a.SampleRows) != 500 || len(b.SampleRows) != 500 {
		t.Fatalf("sample sizes %d/%d", len(a.SampleRows), len(b.SampleRows))
	}
	for i := range a.SampleRows {
		if a.SampleRows[i] != b.SampleRows[i] {
			t.Fatal("sampling not deterministic for equal seeds")
		}
	}
	// Small tables are fully sampled.
	small := uniformTable(50, 10, 1)
	s := Analyze(small, Options{SampleSize: 500, Seed: 1})
	if len(s.SampleRows) != 50 {
		t.Fatalf("small table sample = %d, want 50", len(s.SampleRows))
	}
}

func TestAnalyzeDatabase(t *testing.T) {
	db := storage.NewDatabase()
	db.Add(uniformTable(100, 10, 1))
	sdb := AnalyzeDatabase(db, DefaultOptions(1))
	if sdb.Table("u") == nil || sdb.Table("missing") != nil {
		t.Fatal("DB stats lookup broken")
	}
	if sdb.Table("u").RowCount != 100 {
		t.Fatalf("RowCount = %d", sdb.Table("u").RowCount)
	}
}

func TestAnalyzeStringColumn(t *testing.T) {
	col := storage.NewStringColumn("s")
	for i := 0; i < 1000; i++ {
		if i%3 == 0 {
			col.AppendString("common")
		} else {
			col.AppendString(string(rune('a'+i%26)) + "x")
		}
	}
	tbl := storage.NewTable("st", col)
	cs := Analyze(tbl, Options{SampleSize: 1000, Seed: 1}).Cols["s"]
	if !cs.IsString {
		t.Fatal("IsString = false")
	}
	code, _ := col.Code("common")
	f, ok := cs.MCVFracOf(code)
	if !ok || math.Abs(f-1.0/3) > 0.05 {
		t.Fatalf("common MCV frac = %g/%v", f, ok)
	}
}

func TestEmptyTableAnalyze(t *testing.T) {
	tbl := storage.NewTable("e", storage.NewIntColumn("x"))
	cs := Analyze(tbl, DefaultOptions(1)).Cols["x"]
	if cs.NDistinct != 1 {
		t.Fatalf("empty NDistinct = %g", cs.NDistinct)
	}
}
