package imdb_test

// External test package: the index recipe lives in internal/workload,
// which imports this package.

import (
	"testing"

	"jobench/internal/imdb"
	"jobench/internal/index"
	"jobench/internal/workload"
)

// TestIndexConfigs checks the IMDB schema under the three physical designs.
func TestIndexConfigs(t *testing.T) {
	w, err := workload.Get("imdb")
	if err != nil {
		t.Fatal(err)
	}
	db := w.Generate(workload.Config{Scale: 0.05, Seed: 7})
	none, err := w.BuildIndexes(db, index.NoIndexes)
	if err != nil || none.Size() != 0 {
		t.Fatalf("NoIndexes: size=%d err=%v", none.Size(), err)
	}
	pk, err := w.BuildIndexes(db, index.PKOnly)
	if err != nil {
		t.Fatal(err)
	}
	if pk.Size() != 21 {
		t.Fatalf("PKOnly size = %d, want 21", pk.Size())
	}
	if !pk.Has("title", "id") || pk.Has("movie_info", "movie_id") {
		t.Fatal("PKOnly content wrong")
	}
	pkfk, err := w.BuildIndexes(db, index.PKFK)
	if err != nil {
		t.Fatal(err)
	}
	want := 21 + len(imdb.ForeignKeys())
	if pkfk.Size() != want {
		t.Fatalf("PKFK size = %d, want %d", pkfk.Size(), want)
	}
	if !pkfk.Has("movie_info", "movie_id") || !pkfk.Has("cast_info", "person_id") {
		t.Fatal("FK indexes missing")
	}
	for _, cfg := range w.IndexConfigs() {
		if cfg.String() == "" {
			t.Fatal("empty IndexConfig string")
		}
	}
}
