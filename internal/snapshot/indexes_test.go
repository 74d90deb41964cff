package snapshot

import (
	"strings"
	"testing"

	"jobench/internal/imdb"
)

func TestIndexesRoundTrip(t *testing.T) {
	db := imdb.Generate(imdb.Config{Scale: 0.05, Seed: 7})
	for _, cfg := range []imdb.IndexConfig{imdb.NoIndexes, imdb.PKOnly, imdb.PKFK} {
		set, err := imdb.BuildIndexes(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeIndexes(set, "fp", 2)
		if err != nil {
			t.Fatalf("%v: encode: %v", cfg, err)
		}
		got, err := DecodeIndexes(data, "fp", db, 2)
		if err != nil {
			t.Fatalf("%v: decode: %v", cfg, err)
		}
		if got.Size() != set.Size() {
			t.Fatalf("%v: decoded %d indexes, want %d", cfg, got.Size(), set.Size())
		}
		for _, it := range set.Items() {
			orig := it.Index
			dec := got.Get(it.Table, it.Column)
			if dec == nil {
				t.Fatalf("%v: %s.%s missing after decode", cfg, it.Table, it.Column)
			}
			if dec.Len() != orig.Len() || dec.Unique() != orig.Unique() ||
				dec.DistinctKeys() != orig.DistinctKeys() {
				t.Fatalf("%v: %s.%s shape mismatch after decode", cfg, it.Table, it.Column)
			}
			keys, rows := orig.Postings()
			for i, k := range keys {
				got := dec.Lookup(k)
				if len(got) != len(rows[i]) {
					t.Fatalf("%s.%s key %d: %d rows, want %d", it.Table, it.Column, k, len(got), len(rows[i]))
				}
				for j := range got {
					if got[j] != rows[i][j] {
						t.Fatalf("%s.%s key %d row %d: %d, want %d", it.Table, it.Column, k, j, got[j], rows[i][j])
					}
				}
			}
		}
	}
}

func TestIndexesDeterministicEncoding(t *testing.T) {
	db := imdb.Generate(imdb.Config{Scale: 0.05, Seed: 7})
	set, err := imdb.BuildIndexes(db, imdb.PKFK)
	if err != nil {
		t.Fatal(err)
	}
	a, err := EncodeIndexes(set, "fp", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeIndexes(set, "fp", 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("index encoding differs across worker counts")
	}
}

func TestIndexesDecodeRejectsCorruption(t *testing.T) {
	db := imdb.Generate(imdb.Config{Scale: 0.05, Seed: 7})
	set, err := imdb.BuildIndexes(db, imdb.PKOnly)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeIndexes(set, "fp", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Checksum catches a flipped payload byte.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x5a
	if _, err := DecodeIndexes(bad, "fp", db, 1); err == nil {
		t.Fatal("corrupted index snapshot decoded without error")
	}
	// Truncation is caught too.
	if _, err := DecodeIndexes(data[:len(data)/2], "fp", db, 1); err == nil {
		t.Fatal("truncated index snapshot decoded without error")
	}
	// A fingerprint mismatch must be rejected before any content is trusted.
	if _, err := DecodeIndexes(data, "other-fp", db, 1); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch not rejected: %v", err)
	}
	// A snapshot from a different database scale fails row-bounds checks
	// (the smaller database has fewer rows than the indexed ids).
	smaller := imdb.Generate(imdb.Config{Scale: 0.02, Seed: 7})
	if _, err := DecodeIndexes(data, "fp", smaller, 1); err == nil {
		t.Fatal("index snapshot against mismatched database decoded without error")
	}
}
