package world_test

// These tests pin the snapshot store's acceptance contract on the one
// open-a-world path, through every view of it: a second open with the
// same options and a warm cache performs zero database generation, zero
// ANALYZE, zero index construction and zero true-cardinality computation,
// and a corrupted or version-bumped snapshot falls back to regeneration
// with a logged warning — never an error or panic. They live beside the
// package's hooks (export_test.go) and drive them through the facade, the
// experiments Lab and a bare tpch world.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"jobench"
	"jobench/internal/experiments"
	"jobench/internal/query"
	"jobench/internal/world"
)

// logCapture collects Options.Logf output (truth saves run across the
// warmup worker pool, so it must be concurrency-safe).
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) all() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]string(nil), lc.lines...)
}

func (lc *logCapture) containing(substr string) bool {
	for _, l := range lc.all() {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

var cacheTestQueries = []string{"1a", "6a", "17e"}

func TestWarmOpenSkipsGenerationAndTruth(t *testing.T) {
	dir := t.TempDir()
	hooks := world.CountHooks(t)
	gens, computes, idxBuilds := &hooks.Generations, &hooks.Computes, &hooks.IndexBuilds
	var lc logCapture
	opts := jobench.Options{Scale: 0.05, Seed: 7, CacheDir: dir, Logf: lc.logf}

	cold, err := jobench.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	truths := make(map[string]float64, len(cacheTestQueries))
	for _, qid := range cacheTestQueries {
		v, err := cold.TrueCardinality(qid)
		if err != nil {
			t.Fatal(err)
		}
		truths[qid] = v
	}
	if got := gens.Load(); got != 1 {
		t.Fatalf("cold open: %d generations, want 1", got)
	}
	if got := computes.Load(); got != int64(len(cacheTestQueries)) {
		t.Fatalf("cold open: %d truth computations, want %d", got, len(cacheTestQueries))
	}
	if got := idxBuilds.Load(); got != 3 {
		t.Fatalf("cold open: %d index builds, want 3", got)
	}
	if got := hooks.Analyzes.Load(); got != 1 {
		t.Fatalf("cold open: %d ANALYZE passes, want 1", got)
	}
	if lines := lc.all(); len(lines) != 0 {
		t.Fatalf("cold open logged warnings: %q", lines)
	}

	hooks.Reset()
	warm, err := jobench.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, qid := range cacheTestQueries {
		v, err := warm.TrueCardinality(qid)
		if err != nil {
			t.Fatal(err)
		}
		if v != truths[qid] {
			t.Fatalf("%s: warm cardinality %v, cold %v", qid, v, truths[qid])
		}
	}
	if got := gens.Load(); got != 0 {
		t.Fatalf("warm open: %d generations, want 0", got)
	}
	if got := computes.Load(); got != 0 {
		t.Fatalf("warm open: %d truth computations, want 0", got)
	}
	if got := idxBuilds.Load(); got != 0 {
		t.Fatalf("warm open: %d index builds, want 0", got)
	}
	if got := hooks.Analyzes.Load(); got != 0 {
		t.Fatalf("warm open: %d ANALYZE passes, want 0", got)
	}
	if lines := lc.all(); len(lines) != 0 {
		t.Fatalf("warm open logged warnings: %q", lines)
	}

	// The warm system must behave identically on a full pipeline pass.
	res, err := warm.Execute("1a", jobench.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resCold, err := cold.Execute("1a", jobench.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != resCold.Rows || res.Work != resCold.Work {
		t.Fatalf("warm execute (%d rows, %d work) != cold (%d rows, %d work)",
			res.Rows, res.Work, resCold.Rows, resCold.Work)
	}
}

// snapFile locates one snapshot file under the cache dir.
func snapFile(t *testing.T, dir, name string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*", name))
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob %s under %s: %v, %d matches", name, dir, err, len(matches))
	}
	return matches[0]
}

func TestCorruptedSnapshotRegenerates(t *testing.T) {
	dir := t.TempDir()
	hooks := world.CountHooks(t)
	gens, computes := &hooks.Generations, &hooks.Computes
	var lc logCapture
	opts := jobench.Options{Scale: 0.05, Seed: 7, CacheDir: dir, Logf: lc.logf}

	cold, err := jobench.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.TrueCardinality("1a")
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the database snapshot and truncate the truth
	// store: both must read as corruption, not as data.
	dbPath := snapFile(t, dir, "db.snap")
	data, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x5a
	if err := os.WriteFile(dbPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	truthPath := snapFile(t, dir, filepath.Join("truth", "1a.snap"))
	truthData, err := os.ReadFile(truthPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truthPath, truthData[:len(truthData)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	gens.Store(0)
	computes.Store(0)
	sys, err := jobench.Open(opts)
	if err != nil {
		t.Fatalf("open over corrupted snapshot must fall back, got error: %v", err)
	}
	got, err := sys.TrueCardinality("1a")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cardinality after corruption recovery %v, want %v", got, want)
	}
	if gens.Load() != 1 || computes.Load() != 1 {
		t.Fatalf("corrupted snapshot: %d generations and %d computations, want 1 and 1",
			gens.Load(), computes.Load())
	}
	if !lc.containing("checksum mismatch") && !lc.containing("truncated") {
		t.Fatalf("no corruption warning logged; got %q", lc.all())
	}

	// The regeneration must have healed the cache in passing.
	lc2 := &logCapture{}
	opts.Logf = lc2.logf
	gens.Store(0)
	computes.Store(0)
	healed, err := jobench.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := healed.TrueCardinality("1a"); err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 0 || computes.Load() != 0 {
		t.Fatalf("cache not healed: %d generations, %d computations", gens.Load(), computes.Load())
	}
	if lines := lc2.all(); len(lines) != 0 {
		t.Fatalf("healed open logged warnings: %q", lines)
	}
}

func TestVersionBumpedSnapshotRegenerates(t *testing.T) {
	dir := t.TempDir()
	gens := &world.CountHooks(t).Generations
	var lc logCapture
	opts := jobench.Options{Scale: 0.05, Seed: 7, CacheDir: dir, Logf: lc.logf}

	if _, err := jobench.Open(opts); err != nil {
		t.Fatal(err)
	}

	// Bump the format-version field (bytes 4..8, after the magic).
	dbPath := snapFile(t, dir, "db.snap")
	data, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	data[4]++
	if err := os.WriteFile(dbPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	gens.Store(0)
	sys, err := jobench.Open(opts)
	if err != nil {
		t.Fatalf("open over version-bumped snapshot must fall back, got error: %v", err)
	}
	if gens.Load() != 1 {
		t.Fatalf("version bump: %d generations, want 1", gens.Load())
	}
	if !lc.containing("format version") {
		t.Fatalf("no version warning logged; got %q", lc.all())
	}
	if _, err := sys.TrueCardinality("1a"); err != nil {
		t.Fatal(err)
	}
}

// TestWarmOpenEveryView extends the warm-open contract past the facade: an
// experiments Lab (two ANALYZE passes, three index sets) and a bare tpch
// world do all their work cold and none of it warm.
func TestWarmOpenEveryView(t *testing.T) {
	type counts struct{ gens, analyzes, idxBuilds, computes int64 }
	cases := []struct {
		name string
		open func(t *testing.T, dir string, logf func(string, ...any))
		cold counts
	}{
		{"lab", func(t *testing.T, dir string, logf func(string, ...any)) {
			l, err := experiments.NewLab(experiments.Config{
				Scale: 0.05, Seed: 7, MaxQueries: 3, CacheDir: dir, Logf: logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Warmup(context.Background()); err != nil {
				t.Fatal(err)
			}
		}, counts{1, 2, 3, 3}},
		{"tpch", func(t *testing.T, dir string, logf func(string, ...any)) {
			w, err := world.Open(world.Options{Workload: "tpch", Scale: 0.05, Seed: 7, CacheDir: dir, Logf: logf})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range w.IndexConfigs() {
				if _, err := w.Indexes(cfg); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Warm(context.Background(), []*query.Graph{w.Graphs["tpch5"], w.Graphs["tpch10"]}); err != nil {
				t.Fatal(err)
			}
		}, counts{1, 0, 3, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			hooks := world.CountHooks(t)
			var lc logCapture
			got := func() counts {
				return counts{hooks.Generations.Load(), hooks.Analyzes.Load(), hooks.IndexBuilds.Load(), hooks.Computes.Load()}
			}
			tc.open(t, dir, lc.logf)
			if got() != tc.cold {
				t.Fatalf("cold: %+v, want %+v", got(), tc.cold)
			}
			hooks.Reset()
			tc.open(t, dir, lc.logf)
			if got() != (counts{}) {
				t.Fatalf("warm: %+v, want all zero", got())
			}
			if lines := lc.all(); len(lines) != 0 {
				t.Fatalf("logged warnings: %q", lines)
			}
		})
	}
}

// TestFigure4UsesSnapshotCache pins the fix for Figure 4's TPC-H side,
// which used to regenerate, re-ANALYZE and recompute on every run: against
// a primed cache dir a second fig4 does none of that, and the cached
// report equals an uncached lab's byte for byte.
func TestFigure4UsesSnapshotCache(t *testing.T) {
	dir := t.TempDir()
	hooks := world.CountHooks(t)
	var lc logCapture
	fig4 := func(cacheDir string) string {
		t.Helper()
		l, err := experiments.NewLab(experiments.Config{
			Scale: 0.05, Seed: 7, MaxQueries: 30, CacheDir: cacheDir, Logf: lc.logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		text, err := experiments.RunExperiment(context.Background(), l, "fig4", experiments.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	uncached := fig4("")
	hooks.Reset()
	cold := fig4(dir)
	// The imdb and tpch worlds, the lab's two ANALYZE passes plus Figure
	// 4's own, JOB 6a (the figure's only query in the first 30) plus three
	// TPC-H families.
	if g, a, c := hooks.Generations.Load(), hooks.Analyzes.Load(), hooks.Computes.Load(); g != 2 || a != 3 || c != 4 {
		t.Fatalf("cold fig4: %d generations, %d ANALYZE passes, %d DPs; want 2, 3, 4", g, a, c)
	}
	hooks.Reset()
	warm := fig4(dir)
	if g, a, c := hooks.Generations.Load(), hooks.Analyzes.Load(), hooks.Computes.Load(); g != 0 || a != 0 || c != 0 {
		t.Fatalf("warm fig4: %d generations, %d ANALYZE passes, %d DPs; want none", g, a, c)
	}
	if cold != uncached || warm != uncached {
		t.Fatalf("fig4 report changed with the cache:\nuncached:\n%s\ncold:\n%s\nwarm:\n%s", uncached, cold, warm)
	}
	if lines := lc.all(); len(lines) != 0 {
		t.Fatalf("logged warnings: %q", lines)
	}
}
