package index

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jobench/internal/storage"
)

func intCol(vals ...int64) *storage.Column {
	c := storage.NewIntColumn("k")
	for _, v := range vals {
		c.AppendInt(v)
	}
	return c
}

func TestHashLookup(t *testing.T) {
	col := intCol(5, 3, 5, 7, 3, 5)
	h, err := BuildHash(col, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 6 {
		t.Fatalf("Len = %d", h.Len())
	}
	if got := h.Lookup(5); !reflect.DeepEqual(got, []int32{0, 2, 5}) {
		t.Fatalf("Lookup(5) = %v", got)
	}
	if got := h.Lookup(42); got != nil {
		t.Fatalf("Lookup(42) = %v, want nil", got)
	}
	if h.DistinctKeys() != 3 {
		t.Fatalf("DistinctKeys = %d", h.DistinctKeys())
	}
}

func TestUniqueHashRejectsDuplicates(t *testing.T) {
	if _, err := BuildHash(intCol(1, 2, 1), true); err == nil {
		t.Fatal("unique index accepted duplicate key")
	}
	h, err := BuildHash(intCol(1, 2, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Unique() {
		t.Fatal("Unique() = false")
	}
}

func TestNullsNotIndexed(t *testing.T) {
	col := storage.NewIntColumn("k")
	col.AppendInt(1)
	col.AppendNull()
	col.AppendInt(1)
	h, err := BuildHash(col, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (NULL skipped)", h.Len())
	}
	if got := h.Lookup(0); len(got) != 0 {
		t.Fatalf("NULL sentinel leaked into index: %v", got)
	}
}

// Property: the hash index agrees with a linear scan on random data.
func TestIndexMatchesScanProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		col := storage.NewIntColumn("k")
		for i := 0; i < int(n)+1; i++ {
			col.AppendInt(int64(rng.Intn(16)))
		}
		h, err := BuildHash(col, false)
		if err != nil {
			return false
		}
		for key := int64(-1); key <= 16; key++ {
			var want []int32
			for i, v := range col.Ints {
				if v == key {
					want = append(want, int32(i))
				}
			}
			hg := append([]int32(nil), h.Lookup(key)...)
			if !reflect.DeepEqual(hg, want) && !(len(hg) == 0 && len(want) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSet(t *testing.T) {
	db := storage.NewDatabase()
	tbl := storage.NewTable("t", intCol(1, 2, 3))
	db.Add(tbl)

	s := NewSet()
	if s.Has("t", "k") {
		t.Fatal("empty set claims index")
	}
	if err := s.BuildHashOn(db, "t", "k", true); err != nil {
		t.Fatal(err)
	}
	if !s.Has("t", "k") || s.Get("t", "k") == nil || s.Size() != 1 {
		t.Fatal("index not registered")
	}
	if err := s.BuildHashOn(db, "missing", "k", false); err == nil {
		t.Fatal("no error for missing table")
	}
	if err := s.BuildHashOn(db, "t", "missing", false); err == nil {
		t.Fatal("no error for missing column")
	}
	if d := s.Describe(); len(d) != 1 {
		t.Fatalf("Describe = %v", d)
	}
}
