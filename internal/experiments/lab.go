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

// Config controls the experimental setup: the world a Lab views. Its
// Parallel also sizes every experiment sweep.
type Config = world.Options

// QuickConfig is small enough for tests and benchmarks.
func QuickConfig() Config {
	return Config{Scale: 0.08, Seed: 42}
}

// Lab bundles everything the experiments share: a view over one
// world.World (database, workload, index sets, true cardinalities — shared
// with every other view of that world) plus what is the Lab's own, the
// estimator profiles built on the Lab's small-sample ANALYZE passes.
type Lab struct {
	W *world.World

	DB      *storage.Database
	Stats   *stats.DB
	Queries []*query.Query
	Graphs  map[string]*query.Graph
	IdxPK   *index.Set
	IdxPKFK *index.Set

	// Postgres is the first of the paper's five estimator profiles (see
	// Systems); PostgresTD is PostgreSQL on ANALYZE with true distinct
	// counts (Fig. 5).
	Postgres   cardest.Estimator
	PostgresTD cardest.Estimator

	systems []cardest.Estimator
}

// NewLab builds the shared setup, loading the database, statistics,
// indexes and (lazily, through Truth) true cardinalities from the
// snapshot store when Config.CacheDir names one.
func NewLab(cfg Config) (*Lab, error) {
	w, err := world.Open(cfg)
	if err != nil {
		return nil, err
	}
	return NewLabOver(w)
}

// NewLabOver builds the Lab view over an already-open world (the service
// pool shares one world between a Lab and a facade System).
func NewLabOver(w *world.World) (*Lab, error) {
	o := w.Options
	l := &Lab{W: w, DB: w.DB, Queries: w.Queries, Graphs: w.Graphs}

	// The ANALYZE sample must be small relative to the big tables, like
	// PostgreSQL's 30,000 rows against IMDB's 36M-row cast_info (~0.1%):
	// sample-based distinct counts (Duj1) must underestimate on skewed
	// columns for the paper's §3.4/Fig. 5 effect to exist. We keep the
	// ratio, not the absolute number.
	sopts := stats.Options{SampleSize: 600 + int(4000*o.Scale), MCVTarget: 100, HistBuckets: 100, Seed: o.Seed}
	topts := sopts
	topts.TrueDistinct = true

	if err := w.Prepare([]stats.Options{sopts, topts}, w.IndexConfigs()); err != nil {
		return nil, err
	}
	l.Stats = w.Stats(sopts)
	l.IdxPK, _ = w.Indexes(index.PKOnly) // resolved above, like the next one
	l.IdxPKFK, _ = w.Indexes(index.PKFK)
	l.systems = cardest.Systems(l.DB, l.Stats)
	l.Postgres = l.systems[0]
	l.PostgresTD = cardest.NewPostgres(l.DB, w.Stats(topts))
	return l, nil
}

// Systems returns the five estimators in the paper's order (see
// cardest.Systems). Callers must not modify the slice.
func (l *Lab) Systems() []cardest.Estimator { return l.systems }

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
