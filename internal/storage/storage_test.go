package storage

import (
	"testing"
	"testing/quick"
)

func TestIntColumnAppendAndRead(t *testing.T) {
	c := NewIntColumn("x")
	for i := int64(0); i < 100; i++ {
		c.AppendInt(i * 3)
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
	for i := 0; i < 100; i++ {
		if got := c.Int(i); got != int64(i*3) {
			t.Fatalf("Int(%d) = %d, want %d", i, got, i*3)
		}
		if c.IsNull(i) {
			t.Fatalf("row %d unexpectedly NULL", i)
		}
	}
}

func TestStringColumnDictionaryEncoding(t *testing.T) {
	c := NewStringColumn("s")
	words := []string{"alpha", "beta", "alpha", "gamma", "beta", "alpha"}
	for _, w := range words {
		c.AppendString(w)
	}
	if c.DictSize() != 3 {
		t.Fatalf("DictSize = %d, want 3", c.DictSize())
	}
	for i, w := range words {
		if got := c.StringAt(i); got != w {
			t.Fatalf("StringAt(%d) = %q, want %q", i, got, w)
		}
	}
	// Equal strings share a code; different strings do not.
	if c.Int(0) != c.Int(2) || c.Int(0) == c.Int(1) {
		t.Fatalf("dictionary codes broken: %v", c.Ints)
	}
	code, ok := c.Code("gamma")
	if !ok || c.Dict[code] != "gamma" {
		t.Fatalf("Code(gamma) = (%d,%v)", code, ok)
	}
	if _, ok := c.Code("missing"); ok {
		t.Fatal("Code(missing) should not exist")
	}
}

func TestNullHandling(t *testing.T) {
	c := NewIntColumn("x")
	c.AppendInt(1)
	c.AppendNull()
	c.AppendInt(3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.IsNull(0) || !c.IsNull(1) || c.IsNull(2) {
		t.Fatalf("null mask wrong: %v %v %v", c.IsNull(0), c.IsNull(1), c.IsNull(2))
	}
}

func TestNullBeforeAndAfterValues(t *testing.T) {
	c := NewStringColumn("s")
	c.AppendNull()
	c.AppendString("a")
	c.AppendNull()
	if !c.IsNull(0) || c.IsNull(1) || !c.IsNull(2) {
		t.Fatal("null positions wrong")
	}
	if c.StringAt(1) != "a" {
		t.Fatalf("StringAt(1) = %q", c.StringAt(1))
	}
	if c.StringAt(0) != "" {
		t.Fatalf("StringAt(NULL) = %q, want empty", c.StringAt(0))
	}
}

func TestTableAndDatabase(t *testing.T) {
	id := NewIntColumn("id")
	name := NewStringColumn("name")
	for i := int64(0); i < 10; i++ {
		id.AppendInt(i)
		name.AppendString("n")
	}
	tbl := NewTable("t", id, name)
	if tbl.NumRows() != 10 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if tbl.Column("id") != id || tbl.Column("nope") != nil {
		t.Fatal("Column lookup broken")
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if w := tbl.TupleWidth(); w != 16 {
		t.Fatalf("TupleWidth = %d, want 16", w)
	}

	db := NewDatabase()
	db.Add(tbl)
	if db.Table("t") != tbl || db.Table("u") != nil {
		t.Fatal("database lookup broken")
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("TableNames = %v", got)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("db.Check: %v", err)
	}
}

func TestTableCheckDetectsRaggedColumns(t *testing.T) {
	a := NewIntColumn("a")
	b := NewIntColumn("b")
	a.AppendInt(1)
	a.AppendInt(2)
	b.AppendInt(1)
	tbl := NewTable("ragged", a, b)
	if err := tbl.Check(); err == nil {
		t.Fatal("Check accepted ragged table")
	}
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicate column")
		}
	}()
	NewTable("t", NewIntColumn("x"), NewIntColumn("x"))
}

func TestDuplicateTablePanics(t *testing.T) {
	db := NewDatabase()
	db.Add(NewTable("t", NewIntColumn("x")))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicate table")
		}
	}()
	db.Add(NewTable("t", NewIntColumn("x")))
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for AppendString on int column")
		}
	}()
	NewIntColumn("x").AppendString("boom")
}

// Property: dictionary round-trip — any sequence of strings reads back
// exactly, and the dictionary never exceeds the number of distinct inputs.
func TestStringRoundTripProperty(t *testing.T) {
	f := func(words []string) bool {
		c := NewStringColumn("s")
		for _, w := range words {
			c.AppendString(w)
		}
		distinct := make(map[string]bool)
		for i, w := range words {
			if c.StringAt(i) != w {
				return false
			}
			distinct[w] = true
		}
		return c.DictSize() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
