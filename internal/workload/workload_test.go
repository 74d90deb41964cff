package workload_test

// External test package on purpose: it exercises the registry exactly the
// way the facade and service do, and pulls in the snapshot encoder (which
// itself imports workload) without a cycle.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"jobench/internal/index"
	"jobench/internal/snapshot"
	"jobench/internal/workload"
)

func TestRegistry(t *testing.T) {
	want := []string{"imdb", "imdb-skew", "tpch"}
	got := workload.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if w.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, w.Name())
		}
		if len(w.Queries()) == 0 {
			t.Fatalf("%s: empty query set", name)
		}
		if len(w.IndexConfigs()) == 0 {
			t.Fatalf("%s: no index configs", name)
		}
	}
	def, err := workload.Get("")
	if err != nil || def.Name() != workload.DefaultName {
		t.Fatalf("Get(\"\") = %v, %v; want the default workload", def, err)
	}
	if _, err := workload.Get("nope"); err == nil {
		t.Fatal("Get(\"nope\") did not fail")
	}
}

func TestKeyNormalization(t *testing.T) {
	k := workload.NewKey("", 0, 0)
	if k.Workload != "imdb" || k.Seed != 42 || k.Scale != 1.0 {
		t.Fatalf("NewKey zero values = %+v, want imdb/42/1", k)
	}
	if got, want := workload.NewKey("tpch", 7, 0.1).String(), "tpch/seed=7/scale=0.1"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// Equal worlds must render equally regardless of float spelling.
	if workload.NewKey("imdb", 42, 0.1).String() != workload.NewKey("imdb", 42, 0.10).String() {
		t.Fatal("0.1 and 0.10 rendered differently")
	}
}

// dbHash is the golden-determinism fingerprint: the snapshot encoding of a
// database is canonical (same rows → same bytes at any worker count), so a
// hash over it pins the generated world bit-for-bit.
func dbHash(t *testing.T, w *workload.Workload, cfg workload.Config, workers int) string {
	t.Helper()
	db := w.Generate(cfg)
	data, err := snapshot.EncodeDatabase(db, "golden", workers)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestGenerationDeterminism: every registered workload generates the exact
// same database for the same (seed, scale) — across repeated runs and
// across snapshot-encoder worker counts (1 vs 8), the two axes that could
// silently break reproducibility.
func TestGenerationDeterminism(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			cfg := workload.Config{Scale: 0.05, Seed: 42}
			h1 := dbHash(t, w, cfg, 1)
			h8 := dbHash(t, w, cfg, 8)
			if h1 != h8 {
				t.Fatalf("encoding differs across worker counts: %s vs %s", h1, h8)
			}
			if again := dbHash(t, w, cfg, 1); again != h1 {
				t.Fatalf("regeneration differs for the same seed: %s vs %s", again, h1)
			}
			other := dbHash(t, w, workload.Config{Scale: 0.05, Seed: 43}, 1)
			if other == h1 {
				t.Fatal("different seeds produced an identical database")
			}
		})
	}
}

// TestSkewDiverges: imdb-skew must actually generate a different world than
// imdb at the same (seed, scale) — otherwise the knobs are dead.
func TestSkewDiverges(t *testing.T) {
	base, _ := workload.Get("imdb")
	skew, _ := workload.Get("imdb-skew")
	cfg := workload.Config{Scale: 0.05, Seed: 42}
	if dbHash(t, base, cfg, 1) == dbHash(t, skew, cfg, 1) {
		t.Fatal("imdb-skew generated the same database as imdb")
	}
}

// TestSnapshotRoundTrip: for every workload, the database and each index
// configuration survive a save/load cycle through a store keyed by the
// workload's own Key, and a store for a different workload at the same
// (seed, scale) misses.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			world := workload.NewKey(name, 42, 0.05)
			store := snapshot.New(dir, snapshot.Key{World: world, QueryHash: "rt"}, 1)
			db := w.Generate(world.Config())
			if err := store.SaveDatabase(db); err != nil {
				t.Fatal(err)
			}
			loaded, err := store.LoadDatabase()
			if err != nil {
				t.Fatal(err)
			}
			a, _ := snapshot.EncodeDatabase(db, "cmp", 1)
			b, _ := snapshot.EncodeDatabase(loaded, "cmp", 1)
			if string(a) != string(b) {
				t.Fatal("database round-trip is not byte-identical")
			}
			for _, icfg := range w.IndexConfigs() {
				set, err := w.BuildIndexes(db, icfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.SaveIndexes(icfg.Label(), set); err != nil {
					t.Fatal(err)
				}
				if _, err := store.LoadIndexes(icfg.Label(), loaded); err != nil {
					t.Fatalf("%s indexes: %v", icfg.Label(), err)
				}
			}
			if icfg := w.IndexConfigs()[0]; icfg != index.NoIndexes {
				t.Fatalf("first index config = %v, want none", icfg)
			}
			// Another workload's store at the same (seed, scale) must miss:
			// the fingerprint keys on the workload name.
			otherName := "tpch"
			if name == "tpch" {
				otherName = "imdb"
			}
			other := snapshot.New(dir, snapshot.Key{
				World:     workload.NewKey(otherName, 42, 0.05),
				QueryHash: "rt",
			}, 1)
			if _, err := other.LoadDatabase(); !snapshot.IsMiss(err) {
				t.Fatalf("cross-workload load: want miss, got %v", err)
			}
		})
	}
}
