package workload_test

import (
	"math"
	"testing"

	"jobench/internal/storage"
	"jobench/internal/workload"
)

func tpchDB(t *testing.T, scale float64, seed int64) *storage.Database {
	t.Helper()
	w, err := workload.Get("tpch")
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(workload.Config{Scale: scale, Seed: seed})
}

func TestTPCHGenerateShape(t *testing.T) {
	db := tpchDB(t, 0.2, 3)
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "orders", "lineitem"} {
		if db.Table(name) == nil || db.Table(name).NumRows() == 0 {
			t.Fatalf("table %q missing or empty", name)
		}
	}
	if db.Table("region").NumRows() != 5 || db.Table("nation").NumRows() != 25 {
		t.Fatal("dimension sizes wrong")
	}
	// lineitem per order averages 4 (uniform 1..7).
	ratio := float64(db.Table("lineitem").NumRows()) / float64(db.Table("orders").NumRows())
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("lineitem/order = %.2f, want ~4", ratio)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTPCHReferentialIntegrity(t *testing.T) {
	db := tpchDB(t, 0.1, 5)
	fks := []struct{ tbl, col, ref string }{
		{"nation", "region_id", "region"},
		{"supplier", "nation_id", "nation"},
		{"customer", "nation_id", "nation"},
		{"orders", "customer_id", "customer"},
		{"lineitem", "order_id", "orders"},
		{"lineitem", "part_id", "part"},
		{"lineitem", "supplier_id", "supplier"},
	}
	for _, fk := range fks {
		refN := int64(db.MustTable(fk.ref).NumRows())
		col := db.MustTable(fk.tbl).MustColumn(fk.col)
		for i, v := range col.Ints {
			if v < 1 || v > refN {
				t.Fatalf("%s.%s row %d: dangling %d (ref has %d rows)", fk.tbl, fk.col, i, v, refN)
			}
		}
	}
}

// TestTPCHUniformityAndIndependence verifies the property the paper relies
// on in §3.3: TPC-H attributes are uniform and independent, so multiplying
// selectivities is a good model of reality.
func TestTPCHUniformityAndIndependence(t *testing.T) {
	db := tpchDB(t, 1, 7)
	li := db.MustTable("lineitem")
	ret := li.MustColumn("returnflag")
	disc := li.MustColumn("discount")
	n := li.NumRows()

	// P(returnflag = R) ~ 0.25.
	rCode, _ := ret.Code("R")
	countR := 0
	for _, v := range ret.Ints {
		if v == rCode {
			countR++
		}
	}
	pR := float64(countR) / float64(n)
	if math.Abs(pR-0.25) > 0.02 {
		t.Fatalf("P(R) = %.3f, want ~0.25", pR)
	}

	// P(R and discount=0) ~ P(R) * P(discount=0): independence.
	count0, countBoth := 0, 0
	for i := 0; i < n; i++ {
		d0 := disc.Ints[i] == 0
		if d0 {
			count0++
		}
		if d0 && ret.Ints[i] == rCode {
			countBoth++
		}
	}
	pBoth := float64(countBoth) / float64(n)
	pIndep := pR * float64(count0) / float64(n)
	if math.Abs(pBoth-pIndep) > 0.01 {
		t.Fatalf("joint %.4f vs independent %.4f: attributes not independent", pBoth, pIndep)
	}
}

func TestTPCHDeterminism(t *testing.T) {
	a := tpchDB(t, 0.1, 9)
	b := tpchDB(t, 0.1, 9)
	if a.Table("lineitem").NumRows() != b.Table("lineitem").NumRows() {
		t.Fatal("lineitem count differs for same seed")
	}
	ca, cb := a.MustTable("lineitem").MustColumn("part_id"), b.MustTable("lineitem").MustColumn("part_id")
	for i := range ca.Ints {
		if ca.Ints[i] != cb.Ints[i] {
			t.Fatal("values differ for same seed")
		}
	}
}

func TestTPCHQueriesValidate(t *testing.T) {
	db := tpchDB(t, 0.1, 1)
	w, _ := workload.Get("tpch")
	qs := w.Queries()
	if len(qs) != 10 {
		t.Fatalf("want 10 TPC-H query families, got %d", len(qs))
	}
	seen := make(map[string]bool, len(qs))
	for _, q := range qs {
		if seen[q.ID] {
			t.Errorf("duplicate query id %s", q.ID)
		}
		seen[q.ID] = true
		if err := q.Validate(db); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
		// Q5 must include the customer-supplier nation cycle.
		if q.ID == "tpch5" && q.NumJoins() != 6 {
			t.Errorf("tpch5 has %d joins, want 6", q.NumJoins())
		}
	}
	// The figure-4 experiment names these three families.
	for _, id := range []string{"tpch5", "tpch8", "tpch10"} {
		if !seen[id] {
			t.Errorf("figure-4 query %s missing", id)
		}
	}
}
