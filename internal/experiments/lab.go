// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function of a Lab (the shared
// setup: data, statistics, indexes, workload, true cardinalities) returning
// a typed result with a text rendering; cmd/jobench and the root benchmark
// suite drive them.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"jobench/internal/cardest"
	"jobench/internal/index"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
	"jobench/internal/world"
)

// Config controls the experimental setup.
type Config struct {
	// Workload names the benchmark world ("imdb", "tpch", "imdb-skew");
	// empty selects the default IMDB/JOB world. See internal/workload.
	Workload string
	// Scale is the data scale (for IMDB, 1.0 ~ 10k titles, ~450k rows).
	Scale float64
	// Seed drives all generation and sampling. Zero defaults to 42.
	Seed int64
	// MaxQueries truncates the workload for quick runs (0 = all 113).
	MaxQueries int
	// Parallel is the worker-pool size for every experiment sweep (lab
	// setup, Warmup, all drivers, and the per-subset fan-out inside each
	// true-cardinality computation). 0 means GOMAXPROCS; 1 runs the
	// serial code path. Reports are byte-identical at any setting.
	Parallel int
	// CacheDir enables the persistent snapshot store: the generated
	// database, both ANALYZE passes, and every computed truth store are
	// persisted there and reloaded by the next NewLab with the same Scale
	// and Seed. Corrupted or version-bumped snapshots are regenerated with
	// a logged warning. Empty disables caching.
	CacheDir string
	// Logf receives cache diagnostics (snapshot load/save warnings).
	// Nil means the standard library's log.Printf.
	Logf func(format string, args ...any)
}

// QuickConfig is small enough for tests and benchmarks.
func QuickConfig() Config {
	return Config{Scale: 0.08, Seed: 42}
}

// Lab bundles everything the experiments share: a view over one
// world.World (database, index sets, true cardinalities — shared with
// every other view of that world) plus what is the Lab's own — the
// MaxQueries truncation of the workload and the estimator profiles built
// on the Lab's small-sample ANALYZE passes.
type Lab struct {
	W *world.World

	DB      *storage.Database
	Stats   *stats.DB
	Queries []*query.Query
	Graphs  map[string]*query.Graph
	IdxNone *index.Set
	IdxPK   *index.Set
	IdxPKFK *index.Set

	// Estimators in the paper's presentation order. PostgresTD runs on
	// ANALYZE with true distinct counts (Fig. 5).
	Postgres   cardest.Estimator
	PostgresTD cardest.Estimator
	DBMSA      cardest.Estimator
	DBMSB      cardest.Estimator
	DBMSC      cardest.Estimator
	HyPer      cardest.Estimator
}

// NewLab builds the shared setup, loading the database, statistics,
// indexes and (lazily, through Truth) true cardinalities from the
// snapshot store when Config.CacheDir names one.
func NewLab(cfg Config) (*Lab, error) {
	w, err := world.Open(world.Options{
		Workload: cfg.Workload, Scale: cfg.Scale, Seed: cfg.Seed,
		Parallel: cfg.Parallel, CacheDir: cfg.CacheDir, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	return NewLabOver(w, cfg.MaxQueries)
}

// NewLabOver builds the Lab view over an already-open world (the service
// pool shares one world between a Lab and a facade System). maxQueries is
// Config.MaxQueries.
func NewLabOver(w *world.World, maxQueries int) (*Lab, error) {
	o := w.Options
	l := &Lab{W: w, DB: w.DB, Queries: w.Queries}
	if maxQueries > 0 && maxQueries < len(l.Queries) {
		l.Queries = l.Queries[:maxQueries]
	}
	l.Graphs = make(map[string]*query.Graph, len(l.Queries))
	for _, q := range l.Queries {
		l.Graphs[q.ID] = w.Graphs[q.ID]
	}

	// The ANALYZE sample must be small relative to the big tables, like
	// PostgreSQL's 30,000 rows against IMDB's 36M-row cast_info (~0.1%):
	// sample-based distinct counts (Duj1) must underestimate on skewed
	// columns for the paper's §3.4/Fig. 5 effect to exist. We keep the
	// ratio, not the absolute number.
	sopts := stats.Options{SampleSize: 600 + int(4000*o.Scale), MCVTarget: 100, HistBuckets: 100, Seed: o.Seed}
	topts := sopts
	topts.TrueDistinct = true

	if err := w.Prepare([]stats.Options{sopts, topts}, []index.Config{index.NoIndexes, index.PKOnly, index.PKFK}); err != nil {
		return nil, err
	}
	l.Stats = w.Stats(sopts)
	l.IdxNone, _ = w.Indexes(index.NoIndexes) // resolved above, like the next two
	l.IdxPK, _ = w.Indexes(index.PKOnly)
	l.IdxPKFK, _ = w.Indexes(index.PKFK)
	l.Postgres = cardest.NewPostgres(l.DB, l.Stats)
	l.PostgresTD = cardest.NewPostgres(l.DB, w.Stats(topts))
	l.DBMSA = cardest.NewDBMSA(l.DB, l.Stats)
	l.DBMSB = cardest.NewDBMSB(l.DB, l.Stats)
	l.DBMSC = cardest.NewDBMSC(l.DB, l.Stats)
	l.HyPer = cardest.NewSample(l.DB, l.Stats)
	return l, nil
}

// Systems returns the five estimators in the paper's order.
func (l *Lab) Systems() []cardest.Estimator {
	return []cardest.Estimator{l.Postgres, l.DBMSA, l.DBMSB, l.DBMSC, l.HyPer}
}

// Truth returns (computing and caching on first use) the full true-
// cardinality store of a query of the Lab's workload; see world.Truth.
func (l *Lab) Truth(ctx context.Context, qid string) (*truecard.Store, error) {
	g := l.Graphs[qid]
	if g == nil {
		return nil, fmt.Errorf("experiments: unknown query %s", qid)
	}
	return l.W.Truth(ctx, g)
}

// Warmup computes the true cardinalities of every workload query in
// parallel (see world.Warm). All experiments call Truth lazily; warming
// up front makes a full experiment run dramatically faster on multi-core
// machines. A cancelled warmup (service shutdown, client disconnect)
// aborts the in-flight DPs instead of finishing them orphaned.
func (l *Lab) Warmup(ctx context.Context) error {
	graphs := make([]*query.Graph, len(l.Queries))
	for i, q := range l.Queries {
		graphs[i] = l.Graphs[q.ID]
	}
	return l.W.Warm(ctx, graphs)
}

// QueryIDs returns the workload's query ids in order.
func (l *Lab) QueryIDs() []string {
	ids := make([]string, len(l.Queries))
	for i, q := range l.Queries {
		ids[i] = q.ID
	}
	return ids
}

// sortedKeys is a rendering helper.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
