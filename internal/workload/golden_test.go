package workload_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jobench/internal/imdb"
	"jobench/internal/index"
	"jobench/internal/snapshot"
	"jobench/internal/storage"
	"jobench/internal/workload"
)

// -update regenerates the golden world table from the current generators
// and index recipe. Only do this deliberately: the table pins every byte a
// snapshot store persists for the database and its three index sets.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_worlds.tsv from the current generators")

const goldenWorldsPath = "testdata/golden_worlds.tsv"

// designs is the paper's three physical designs, spelled out here so the
// golden does not depend on the code under test for its own row list.
var designs = []index.Config{index.NoIndexes, index.PKOnly, index.PKFK}

// goldenFingerprint is the fixed snapshot fingerprint every pinned encoding
// carries, so the hashes depend on the data alone.
const goldenFingerprint = "golden-worlds"

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestGoldenWorlds pins every registered world at scale 0.05, seed 42: the
// SHA-256 of its snapshot database encoding and of its index-set encoding
// under each physical design. A generator or index-recipe change that moves
// a single value of a single row shows up here.
func TestGoldenWorlds(t *testing.T) {
	var keys []string
	got := map[string]string{}
	put := func(key string, data []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		keys = append(keys, key)
		got[key] = sha(data)
	}
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		db := w.Generate(workload.Config{Scale: 0.05, Seed: 42})
		data, err := snapshot.EncodeDatabase(db, goldenFingerprint, 1)
		put(name+"\tdb", data, err)
		for _, cfg := range designs {
			set, err := w.BuildIndexes(db, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.Label(), err)
			}
			data, err := snapshot.EncodeIndexes(set, goldenFingerprint, 1)
			put(name+"\tindexes/"+cfg.Label(), data, err)
		}
	}

	if *updateGolden {
		var b strings.Builder
		b.WriteString("# workload\tartifact\tsha256(encoding)\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s\t%s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenWorldsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWorldsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d rows", goldenWorldsPath, len(keys))
		return
	}

	f, err := os.Open(goldenWorldsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, '\t')
		if i < 0 || strings.Count(line, "\t") != 2 {
			t.Fatalf("bad golden line %q", line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d rows, this run computed %d", len(want), len(got))
	}
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from golden table (run with -update)", k)
			continue
		}
		if got[k] != w {
			t.Errorf("%s: sha256 %s, want %s", k, got[k], w)
		}
	}
}

// fkColumns is each workload's declared foreign-key columns, as
// "table.column". The IMDB worlds take theirs from the schema; the TPC-H
// list is written out here as an independent oracle.
func fkColumns(name string) []string {
	if name == "tpch" {
		return []string{
			"nation.region_id", "supplier.nation_id", "customer.nation_id",
			"orders.customer_id", "lineitem.order_id", "lineitem.part_id",
			"lineitem.supplier_id",
		}
	}
	var out []string
	for _, fk := range imdb.ForeignKeys() {
		out = append(out, fk.Table+"."+fk.Column)
	}
	return out
}

// indexed maps each "table.column" of set to whether its index is unique.
func indexed(set *index.Set) map[string]bool {
	out := make(map[string]bool, set.Size())
	for _, it := range set.Items() {
		out[it.Table+"."+it.Column] = it.Index.Unique()
	}
	return out
}

// TestIndexRecipe checks the one index recipe every workload shares: no
// design has no index; PK has exactly one unique index per table, on id;
// PK+FK adds exactly the declared foreign-key columns, as non-unique
// indexes. The designs are listed in the paper's order.
func TestIndexRecipe(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if got := w.IndexConfigs(); fmt.Sprint(got) != fmt.Sprint(designs) {
				t.Fatalf("IndexConfigs() = %v, want %v", got, designs)
			}
			db := w.Generate(workload.Config{Scale: 0.05, Seed: 42})
			build := func(cfg index.Config) map[string]bool {
				set, err := w.BuildIndexes(db, cfg)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Label(), err)
				}
				return indexed(set)
			}
			if none := build(index.NoIndexes); len(none) != 0 {
				t.Fatalf("no-index design has %d indexes", len(none))
			}
			pk := build(index.PKOnly)
			checkPK(t, db, pk)
			pkfk := build(index.PKFK)
			fks := fkColumns(name)
			if len(pkfk) != len(pk)+len(fks) {
				t.Fatalf("PK+FK has %d indexes, want %d PK + %d FK", len(pkfk), len(pk), len(fks))
			}
			for col, unique := range pk {
				if u, ok := pkfk[col]; !ok || u != unique {
					t.Errorf("PK+FK lost or changed PK index %s", col)
				}
			}
			for _, col := range fks {
				unique, ok := pkfk[col]
				if !ok {
					t.Errorf("PK+FK misses FK index %s", col)
				} else if unique {
					t.Errorf("FK index %s is unique", col)
				}
			}
		})
	}
}

// checkPK asserts pk holds exactly one unique index per table of db, on id.
func checkPK(t *testing.T, db *storage.Database, pk map[string]bool) {
	t.Helper()
	tables := db.TableNames()
	if len(pk) != len(tables) {
		t.Fatalf("PK design has %d indexes for %d tables", len(pk), len(tables))
	}
	for _, tbl := range tables {
		if unique, ok := pk[tbl+".id"]; !ok || !unique {
			t.Errorf("table %s: no unique PK index on id", tbl)
		}
	}
}
