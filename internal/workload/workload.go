// Package workload makes the benchmark world a first-class dimension of
// the system. A Workload is a value: a deterministic data generator, a
// query set, and the foreign-key columns of one benchmark (IMDB/JOB, mini
// TPC-H, skewed IMDB). The index recipe and the list of physical designs
// are written once, on the type, for every workload; a small fixed
// registry maps names to values. Every layer that used to hardwire the
// IMDB world — the jobench facade, the snapshot store, the service pool,
// the router's affinity hashing, the load generator — now keys on Key,
// the (workload, seed, scale) triple.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"jobench/internal/imdb"
	"jobench/internal/index"
	"jobench/internal/job"
	"jobench/internal/query"
	"jobench/internal/storage"
)

// DefaultName is the workload every layer falls back to when none is
// named: the paper's IMDB/JOB world.
const DefaultName = "imdb"

// Config carries the generator inputs shared by every workload. Zero
// values default like the facade: Scale 0 means 1.0, Seed 0 means 42.
type Config struct {
	// Scale multiplies every table's row count.
	Scale float64
	// Seed makes generation fully deterministic.
	Seed int64
}

// Normalize applies the shared defaulting (Scale <= 0 → 1.0, Seed 0 → 42).
func (c Config) Normalize() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Workload is one benchmark world: a named deterministic generator plus
// the queries and physical designs that run against it.
type Workload struct {
	name     string
	generate func(Config) *storage.Database // called with a normalized config
	queries  func() []*query.Query
	fks      []column // the foreign-key columns PK+FK indexes
}

// column names one table.column of a workload's schema.
type column struct{ table, name string }

// Name is the registry name ("imdb", "tpch", "imdb-skew").
func (w *Workload) Name() string { return w.name }

// Generate deterministically builds the database for the config.
func (w *Workload) Generate(cfg Config) *storage.Database { return w.generate(cfg.Normalize()) }

// Queries returns the workload's query set in stable order.
func (w *Workload) Queries() []*query.Query { return w.queries() }

// IndexConfigs lists the paper's three physical designs (§4, §6.1), in the
// order the facade builds them. Every workload supports all three.
func (*Workload) IndexConfigs() []index.Config { return index.Designs() }

// BuildIndexes constructs the index set for one physical design by the
// recipe every workload shares: no indexes at all; PK adds a unique hash
// on every table's id; PK+FK also adds a non-unique hash on every
// foreign-key column.
func (w *Workload) BuildIndexes(db *storage.Database, cfg index.Config) (*index.Set, error) {
	type key struct {
		column
		unique bool
	}
	var keys []key
	if cfg != index.NoIndexes {
		for _, t := range db.TableNames() {
			keys = append(keys, key{column{t, "id"}, true})
		}
	}
	if cfg == index.PKFK {
		for _, c := range w.fks {
			keys = append(keys, key{c, false})
		}
	}
	set := index.NewSet()
	for _, k := range keys {
		if err := set.BuildHashOn(db, k.table, k.name, k.unique); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// Key identifies one generated world: which workload, which seed, which
// scale. It is the unit of affinity across the system — snapshot
// fingerprints, service pool entries, and router ring placement all derive
// from it.
type Key struct {
	// Workload is the registry name; empty means DefaultName.
	Workload string
	// Seed is the generator seed (0 means 42).
	Seed int64
	// Scale is the generator scale (0 means 1.0).
	Scale float64
}

// NewKey builds a normalized Key: empty workload becomes DefaultName and
// the config defaulting is applied.
func NewKey(workload string, seed int64, scale float64) Key {
	if workload == "" {
		workload = DefaultName
	}
	cfg := Config{Scale: scale, Seed: seed}.Normalize()
	return Key{Workload: workload, Seed: cfg.Seed, Scale: cfg.Scale}
}

// Config returns the generator inputs of the key.
func (k Key) Config() Config { return Config{Scale: k.Scale, Seed: k.Seed} }

// String renders the key canonically ("imdb/seed=42/scale=0.1"); equal
// keys render equally, so the string is usable as a map or affinity key.
func (k Key) String() string {
	w := k.Workload
	if w == "" {
		w = DefaultName
	}
	return w + "/seed=" + strconv.FormatInt(k.Seed, 10) +
		"/scale=" + strconv.FormatFloat(k.Scale, 'g', -1, 64)
}

// registry is fixed at init time; no mutation after that, so reads are
// safe without locking.
var registry = map[string]*Workload{}

func register(w *Workload) { registry[w.name] = w }

// Get looks a workload up by name; empty selects DefaultName. The error
// lists the known names so CLI and service surfaces can echo it verbatim.
func Get(name string) (*Workload, error) {
	if name == "" {
		name = DefaultName
	}
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return w, nil
}

// Names returns the registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SkewZipf and SkewCorrelation are the knob settings of the "imdb-skew"
// workload: a substantially heavier popularity tail and join-crossing
// correlations pushed near their ceiling, so the estimator-breaking
// properties of the IMDB data become a dial rather than a fixed dataset.
const (
	// SkewZipf multiplies the Zipf-style fan-out exponent (baseline 1.05).
	SkewZipf = 1.6
	// SkewCorrelation multiplies the country-local sampling probabilities
	// (baselines 0.70 and 0.65, clamped below 0.99).
	SkewCorrelation = 1.35
)

func init() {
	var imdbFKs []column
	for _, fk := range imdb.ForeignKeys() {
		imdbFKs = append(imdbFKs, column{fk.Table, fk.Column})
	}
	// imdb is the default world: the synthetic IMDB database and the
	// 113-query Join Order Benchmark.
	register(&Workload{
		name: "imdb",
		generate: func(cfg Config) *storage.Database {
			return imdb.Generate(imdb.Config{Scale: cfg.Scale, Seed: cfg.Seed})
		},
		queries: job.Workload,
		fks:     imdbFKs,
	})
	// imdb-skew is the IMDB generator with the skew and correlation knobs
	// turned up; only the data distribution differs from imdb.
	register(&Workload{
		name: "imdb-skew",
		generate: func(cfg Config) *storage.Database {
			return imdb.Generate(imdb.Config{
				Scale: cfg.Scale, Seed: cfg.Seed, Skew: SkewZipf, Correlation: SkewCorrelation,
			})
		},
		queries: job.Workload,
		fks:     imdbFKs,
	})
	// tpch is the mini TPC-H world: uniform, independent data over 7
	// tables and ten SPJ query families (tpch.go).
	register(&Workload{name: "tpch", generate: tpchGenerate, queries: tpchQueries, fks: tpchFKs})
}
