// Package world is the one open-a-world path of the repository. A World
// is one generated (workload, seed, scale) database plus everything
// derived from it that is expensive and shareable: the workload's
// validated queries and join graphs, ANALYZE statistics per options
// value, index sets per physical design, and each query's exact
// true-cardinality store. Every derived artifact resolves the same way —
// memory, then the snapshot store, then computation (persisted
// best-effort) — exactly once per key however many goroutines ask.
//
// The jobench facade (System) and the experiments Lab are views over a
// *World that add only what is theirs. That is the paper's method — one
// database instance whose true cardinalities are computed once and
// injected everywhere (§2.4, §3) — made structural.
package world

import (
	"context"
	"fmt"
	"log"
	"sync"

	"jobench/internal/index"
	"jobench/internal/parallel"
	"jobench/internal/query"
	"jobench/internal/snapshot"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/trace"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

// Options configure Open.
type Options struct {
	// Workload names the benchmark world to open: "imdb" (the default —
	// the 21-table IMDB data set and the 113-query JOB workload), "tpch"
	// (the mini TPC-H world), or "imdb-skew" (IMDB with the skew and
	// correlation knobs turned up). See internal/workload.
	Workload string
	// Scale sizes the data set; for IMDB, 1.0 generates ~10,000 movies and
	// ~245,000 rows across the 21 tables. Zero means 1.0.
	Scale float64
	// Seed makes everything deterministic. Zero means 42.
	Seed int64
	// Parallel is the worker-pool size for snapshot encode/decode, index
	// builds, Warm's true-cardinality sweep, and the per-subset fan-out
	// inside each single query's true-cardinality DP (truecard.Options.
	// Parallel). 0 means GOMAXPROCS; 1 is fully serial. Results are
	// identical at any setting.
	Parallel int
	// CacheDir enables the persistent snapshot store: the generated
	// database, its statistics, the three index sets, and every computed
	// true-cardinality store are persisted beneath this directory and
	// reloaded by the next Open of the same (workload, seed, scale) world,
	// skipping generation and truth computation. Snapshots are versioned
	// and checksummed; a corrupted, truncated, or version-bumped one is
	// regenerated with a warning through Logf, never trusted and never
	// fatal. Empty disables caching.
	CacheDir string
	// Logf receives cache diagnostics (snapshot load/save warnings). Nil
	// means log.Printf.
	Logf func(format string, args ...any)
}

// The expensive steps sit behind indirection points so tests can prove a
// warm open performs none of them and a shared world each exactly once.
var (
	generateDB   = (*workload.Workload).Generate
	analyzeDB    = stats.AnalyzeDatabase
	buildIndexes = (*workload.Workload).BuildIndexes
	computeTruth = truecard.ComputeContext
)

// World is one opened benchmark instance. Every method is safe for
// concurrent use; the exported fields are immutable after Open.
type World struct {
	// Options are the normalized options the world was opened with
	// (workload name resolved, Scale and Seed defaulted, Logf non-nil).
	Options Options
	// Key is the (workload, seed, scale) identity of the world.
	Key workload.Key
	// DB is the generated (or snapshot-loaded) database.
	DB *storage.Database
	// Queries is the workload's query set in stable order, validated
	// against DB; Graphs holds each query's join graph by id.
	Queries []*query.Query
	Graphs  map[string]*query.Graph

	wl   *workload.Workload
	snap *snapshot.Store // nil when Options.CacheDir was empty

	stats   parallel.KeyedOnce[stats.Options, *stats.DB]
	indexes parallel.KeyedOnce[index.Config, indexSet]

	truth       sync.Map // *query.Graph → *truecard.Store; written once per key
	truthFlight parallel.Flight[*query.Graph, *truecard.Store]
}

type indexSet struct {
	set *index.Set
	err error
}

// Open resolves the workload, loads its database from the snapshot store
// or generates (and persists) it, and validates the workload's queries
// against it. Statistics, indexes and truth stores are resolved lazily by
// the methods below.
func Open(opts Options) (*World, error) {
	wl, err := workload.Get(opts.Workload)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	key := workload.NewKey(wl.Name(), opts.Seed, opts.Scale)
	opts.Workload, opts.Seed, opts.Scale = key.Workload, key.Seed, key.Scale
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	w := &World{
		Options: opts,
		Key:     key,
		Queries: wl.Queries(),
		wl:      wl,
	}
	if opts.CacheDir != "" {
		// The fingerprint hashes the full query set: truth files are
		// per-query, so every view of the world shares one directory.
		w.snap = snapshot.New(opts.CacheDir, snapshot.Key{
			World:     key,
			QueryHash: snapshot.WorkloadHash(w.Queries),
		}, opts.Parallel)
	}

	// Generation is deterministic in the key, so a regenerated database is
	// bit-identical to a cached one and downstream snapshots (statistics,
	// indexes, truth) stay valid either way.
	w.DB, _ = resolve(w, "database", w.snap.LoadDatabase,
		func() (*storage.Database, error) { return generateDB(wl, key.Config()), nil },
		w.snap.SaveDatabase)

	w.Graphs = make(map[string]*query.Graph, len(w.Queries))
	for _, q := range w.Queries {
		if err := q.Validate(w.DB); err != nil {
			return nil, fmt.Errorf("world: workload query %s: %w", q.ID, err)
		}
		w.Graphs[q.ID] = query.MustBuildGraph(q)
	}
	return w, nil
}

// resolve is the policy every artifact shares: a snapshot hit is returned
// as is; a plain miss builds silently; an untrustworthy snapshot
// (corruption, truncation, version or fingerprint mismatch) logs one
// warning and builds; a fresh build is persisted best-effort — a failed
// write degrades to a warning, since the caller holds the value either
// way — which also heals a bad snapshot. load and save are not called
// when the world has no snapshot store; only build's error is returned.
func resolve[T any](w *World, what string, load func() (T, error), build func() (T, error), save func(T) error) (T, error) {
	if w.snap != nil {
		v, err := load()
		if err == nil {
			return v, nil
		}
		if !snapshot.IsMiss(err) {
			w.Options.Logf("world: snapshot %s: %v (regenerating)", what, err)
		}
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	if w.snap != nil {
		if err := save(v); err != nil {
			w.Options.Logf("world: snapshot save %s: %v", what, err)
		}
	}
	return v, nil
}

// IndexConfigs lists the physical designs the workload supports, in the
// order the facade builds them.
func (w *World) IndexConfigs() []index.Config { return w.wl.IndexConfigs() }

// Stats returns the ANALYZE statistics of the database under opts,
// resolving them on first use. Each distinct opts value is its own
// artifact (and snapshot file): the facade and the Lab analyze the same
// database with different sample sizes.
func (w *World) Stats(opts stats.Options) *stats.DB {
	return w.stats.Get(opts, func() *stats.DB {
		sdb, _ := resolve(w, "stats",
			func() (*stats.DB, error) { return w.snap.LoadStats(opts) },
			func() (*stats.DB, error) { return analyzeDB(w.DB, opts), nil },
			func(sdb *stats.DB) error { return w.snap.SaveStats(opts, sdb) })
		return sdb
	})
}

// Indexes returns the index set of one physical design, resolving it on
// first use.
func (w *World) Indexes(cfg index.Config) (*index.Set, error) {
	r := w.indexes.Get(cfg, func() indexSet {
		label := cfg.Label()
		set, err := resolve(w, "indexes "+label,
			func() (*index.Set, error) { return w.snap.LoadIndexes(label, w.DB) },
			func() (*index.Set, error) { return buildIndexes(w.wl, w.DB, cfg) },
			func(set *index.Set) error { return w.snap.SaveIndexes(label, set) })
		return indexSet{set, err}
	})
	return r.set, r.err
}

// Prepare resolves the given statistics and index sets concurrently
// across the world's worker pool (they only read the database), so the
// Stats and Indexes calls that follow are memory hits. It returns the
// first index-build error.
func (w *World) Prepare(sopts []stats.Options, configs []index.Config) error {
	var tasks []func() error
	for _, o := range sopts {
		tasks = append(tasks, func() error { w.Stats(o); return nil })
	}
	for _, cfg := range configs {
		tasks = append(tasks, func() error { _, err := w.Indexes(cfg); return err })
	}
	return parallel.Do(context.Background(), w.Options.Parallel, tasks...)
}

// Truth returns the true cardinality of every connected subexpression of
// g's query, resolving the store on first use. g is one of w.Graphs or a
// graph a view built for a user-registered query; the memory table is
// keyed by graph identity, so two views registering different queries
// under one id never share a store.
//
// A burst of concurrent requests for one unresolved store runs the DP
// exactly once, inline under the first caller's ctx, and shares the
// result; each joiner's ctx bounds only its own wait, so a joiner whose
// deadline passes returns ctx.Err() while the DP runs on. Errors are not
// latched: a cancelled or failed computation leaves the next caller free
// to retry. The "truecard" span covers the flight wait, so joiners record
// how long they blocked on the shared computation too.
func (w *World) Truth(ctx context.Context, g *query.Graph) (*truecard.Store, error) {
	if st, ok := w.truth.Load(g); ok {
		return st.(*truecard.Store), nil
	}
	sp := trace.StartSpan(ctx, "truecard")
	defer func() { sp.End(trace.String("query", g.Q.ID)) }()
	st, err, _ := w.truthFlight.Do(ctx, g, func() (*truecard.Store, error) {
		if st, ok := w.truth.Load(g); ok {
			return st.(*truecard.Store), nil
		}
		st, err := resolve(w, "truth "+g.Q.ID,
			func() (*truecard.Store, error) { return w.snap.LoadTruth(g) },
			func() (*truecard.Store, error) {
				return computeTruth(ctx, w.DB, g, truecard.Options{Parallel: w.Options.Parallel})
			},
			w.snap.SaveTruth)
		if err != nil {
			return nil, fmt.Errorf("world: true cardinalities for %s (row limit %d): %w",
				g.Q.ID, truecard.DefaultMaxRows, err)
		}
		w.truth.Store(g, st)
		return st, nil
	})
	return st, err
}

// Warm resolves the truth store of every given graph across the world's
// worker pool. ctx flows into every DP, so a cancelled warm-up (service
// shutdown, client disconnect) or one query's failure aborts the sibling
// computations in flight instead of finishing them orphaned.
//
// Each query's DP fans out across the same pool, nesting up to
// Parallel^2 goroutines. That is deliberate: query costs vary by orders
// of magnitude, so late in the sweep a handful of giant queries would
// otherwise hold one core each while the rest idle; the inner fan-out
// soaks up that straggler tail, and idle inner workers cost nothing.
func (w *World) Warm(ctx context.Context, graphs []*query.Graph) error {
	_, err := parallel.RunCells(ctx, w.Options.Parallel, graphs,
		func(ctx context.Context, g *query.Graph) (struct{}, error) {
			_, err := w.Truth(ctx, g)
			return struct{}{}, err
		})
	return err
}
