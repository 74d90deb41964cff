package engine

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/enum"
	"jobench/internal/index"
	"jobench/internal/job"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/workload"
)

// -update regenerates the golden work-unit tables from the current engine.
// Only do this deliberately: the tables are the metering contract that every
// engine change must preserve.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_work*.tsv from the current engine")

// goldenPlan is one row of a golden table: a query and the plan executed
// for it.
type goldenPlan struct {
	id   string
	g    *query.Graph
	root *plan.Node
}

// TestGoldenWorkUnits executes the optimizer's plan for every JOB query at
// the test scale and asserts (rows, work) — with rehashing off and on —
// against a checked-in table. The engine's work units are its clock: every
// experiment report is a function of them, so any engine change that shifts
// a single unit shows up here before it silently skews §4.1, Fig. 6/7 or
// Tables 2-3. The table was generated by the scalar row-at-a-time engine;
// the vectorized engine must reproduce it exactly.
func TestGoldenWorkUnits(t *testing.T) {
	l := lab(t)
	var plans []goldenPlan
	for _, q := range job.Workload() {
		g, root := l.planFor(t, q.ID, plan.Bushy)
		plans = append(plans, goldenPlan{q.ID, g, root})
	}
	checkGolden(t, "testdata/golden_work.tsv", l.db, l.pkfk, plans)
}

// TestGoldenWorkUnitsRowAtATime runs the JOB and skewed-world goldens with
// one-row blocks: block boundaries change only where the work limit is
// checked, never what is counted, so both tables must still match.
func TestGoldenWorkUnitsRowAtATime(t *testing.T) {
	defer func(old int) { blockSize = old }(blockSize)
	blockSize = 1
	t.Run("imdb", TestGoldenWorkUnits)
	t.Run("skew", TestGoldenWorkUnitsSkew)
}

// TestGoldenWorkUnitsSkew pins the contract on the skewed world the
// benchmark's exec.job workload executes (at scale 0.1), where posting
// lists are long and index-nested-loop joins dominate: the DP plan of every
// JOB query under PostgreSQL estimates and PK+FK indexes. The table was
// generated by the engine that batched index-join fetches before filtering
// them; the bitmap-selection kernel must reproduce it exactly.
func TestGoldenWorkUnitsSkew(t *testing.T) {
	w := skewWorld(t, skewTestScale)
	checkGolden(t, "testdata/golden_work_skew.tsv", w.db, w.pkfk, w.plans)
}

// TestGoldenWorkUnitsTPCH pins the same contract for the ten TPC-H families
// under the no-index design: scans and hash joins only, the path the
// benchmark's exec.tpch workload measures.
func TestGoldenWorkUnitsTPCH(t *testing.T) {
	w, err := workload.Get("tpch")
	if err != nil {
		t.Fatal(err)
	}
	db := w.Generate(workload.Config{Scale: 1, Seed: 21})
	sdb := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 2000, Seed: 1})
	none, err := w.BuildIndexes(db, index.NoIndexes)
	if err != nil {
		t.Fatal(err)
	}
	pg := cardest.NewPostgres(db, sdb)
	var plans []goldenPlan
	for _, q := range w.Queries() {
		g := query.MustBuildGraph(q)
		root, err := enum.DP(&enum.Space{
			G: g, DB: db, Cards: pg.ForQuery(g),
			Model: costmodel.NewSimple(), Indexes: none, DisableNLJ: true, Shape: plan.Bushy,
		})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		plans = append(plans, goldenPlan{q.ID, g, root})
	}
	checkGolden(t, "testdata/golden_work_tpch.tsv", db, none, plans)
}

// skewTestScale keeps the skewed world's tests fast; exec.job itself runs
// at 0.3 (BenchmarkEngineExecuteSkew).
const skewTestScale = 0.1

// skewEnv is an imdb-skew world planned the way the facade plans exec.job's
// ops: seed 42, default ANALYZE, PostgreSQL estimates, the simple cost
// model, PK+FK indexes, DP with nested-loop joins disabled, bushy shape.
type skewEnv struct {
	db    *storage.Database
	pkfk  *index.Set
	plans []goldenPlan
}

var skewWorlds = map[float64]*skewEnv{}

func skewWorld(tb testing.TB, scale float64) *skewEnv {
	tb.Helper()
	if w := skewWorlds[scale]; w != nil {
		return w
	}
	wl, err := workload.Get("imdb-skew")
	if err != nil {
		tb.Fatal(err)
	}
	const seed = 42
	db := wl.Generate(workload.Config{Scale: scale, Seed: seed})
	sdb := stats.AnalyzeDatabase(db, stats.DefaultOptions(seed))
	pkfk, err := wl.BuildIndexes(db, index.PKFK)
	if err != nil {
		tb.Fatal(err)
	}
	pg := cardest.NewPostgres(db, sdb)
	w := &skewEnv{db: db, pkfk: pkfk}
	for _, q := range wl.Queries() {
		g := query.MustBuildGraph(q)
		root, err := enum.DP(&enum.Space{
			G: g, DB: db, Cards: pg.ForQuery(g),
			Model: costmodel.NewSimple(), Indexes: pkfk, DisableNLJ: true, Shape: plan.Bushy,
		})
		if err != nil {
			tb.Fatalf("%s: %v", q.ID, err)
		}
		w.plans = append(w.plans, goldenPlan{q.ID, g, root})
	}
	skewWorlds[scale] = w
	return w
}

// checkGolden runs every plan with rehashing off and on and compares
// (rows, work_fixed, work_rehash) against the table at path, or rewrites
// the table under -update.
func checkGolden(t *testing.T, path string, db *storage.Database, idx *index.Set, plans []goldenPlan) {
	t.Helper()
	type cell struct {
		rows       int64
		workFixed  int64
		workRehash int64
	}
	got := make(map[string]cell)
	for _, p := range plans {
		fixed, err := Run(db, idx, p.g, p.root, Config{})
		if err != nil {
			t.Fatalf("%s (rehash off): %v", p.id, err)
		}
		rehash, err := Run(db, idx, p.g, p.root, Config{Rehash: true})
		if err != nil {
			t.Fatalf("%s (rehash on): %v", p.id, err)
		}
		if fixed.Rows != rehash.Rows {
			t.Fatalf("%s: rehash changed the result: %d vs %d rows", p.id, fixed.Rows, rehash.Rows)
		}
		got[p.id] = cell{rows: fixed.Rows, workFixed: fixed.Work, workRehash: rehash.Work}
	}

	if *updateGolden {
		var b strings.Builder
		b.WriteString("# query\trows\twork_fixed\twork_rehash\n")
		for _, p := range plans {
			c := got[p.id]
			fmt.Fprintf(&b, "%s\t%d\t%d\t%d\n", p.id, c.rows, c.workFixed, c.workRehash)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d queries", path, len(plans))
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	defer f.Close()
	want := make(map[string]cell)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("bad golden line %q", line)
		}
		var c cell
		if _, err := fmt.Sscanf(fields[1]+" "+fields[2]+" "+fields[3], "%d %d %d",
			&c.rows, &c.workFixed, &c.workRehash); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		want[fields[0]] = c
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d queries, workload has %d", len(want), len(got))
	}
	for _, p := range plans {
		w, ok := want[p.id]
		if !ok {
			t.Errorf("%s: missing from golden table (run with -update)", p.id)
			continue
		}
		if g := got[p.id]; g != w {
			t.Errorf("%s: (rows, work_fixed, work_rehash) = (%d, %d, %d), golden (%d, %d, %d)",
				p.id, g.rows, g.workFixed, g.workRehash, w.rows, w.workFixed, w.workRehash)
		}
	}
}
