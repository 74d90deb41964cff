package truecard

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/query"
)

// -update regenerates the golden truth table from the current DP. Only do
// this deliberately: the table pins every true cardinality the experiments
// read.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_truth.tsv from the current DP")

const goldenTruthPath = "testdata/golden_truth.tsv"

// dumpDigest is the SHA-256 of a canonical text rendering of d: the max
// size, then every card and sans entry in Dump order, floats in their
// shortest exact form.
func dumpDigest(d Dump) string {
	h := sha256.New()
	fmt.Fprintf(h, "max %d\n", d.MaxSize)
	for _, e := range d.Cards {
		fmt.Fprintf(h, "card %d %s\n", uint64(e.S), strconv.FormatFloat(e.Card, 'g', -1, 64))
	}
	for _, e := range d.Sans {
		fmt.Fprintf(h, "sans %d %d %s\n", uint64(e.S), e.Rel, strconv.FormatFloat(e.Card, 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTruth pins the whole truth store (every card and every
// sans-selection count) of every JOB query at imdb scale 0.02, seed 42,
// against a checked-in table of Dump digests. A DP change that moves a
// single count of a single subgraph shows up here. Under -short every 6th
// query runs.
func TestGoldenTruth(t *testing.T) {
	db := imdb.Generate(imdb.Config{Scale: 0.02, Seed: 42})
	var ids []string
	got := map[string]string{}
	for i, q := range job.Workload() {
		if testing.Short() && !*updateGolden && i%6 != 0 {
			continue
		}
		st, err := Compute(db, query.MustBuildGraph(q), Options{})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		ids = append(ids, q.ID)
		got[q.ID] = dumpDigest(st.Dump())
	}

	if *updateGolden {
		var b strings.Builder
		b.WriteString("# query\tsha256(Dump)\n")
		for _, id := range ids {
			fmt.Fprintf(&b, "%s\t%s\n", id, got[id])
		}
		if err := os.MkdirAll(filepath.Dir(goldenTruthPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTruthPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d queries", goldenTruthPath, len(ids))
		return
	}

	f, err := os.Open(goldenTruthPath)
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
		fields := strings.Split(line, "\t")
		if len(fields) != 2 {
			t.Fatalf("bad golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("golden table has %d queries, this run computed %d", len(want), len(got))
	}
	for _, id := range ids {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: missing from golden table (run with -update)", id)
			continue
		}
		if got[id] != w {
			t.Errorf("%s: Dump digest %s, want %s", id, got[id], w)
		}
	}
}
