// Package jobench is a from-scratch Go reproduction of "How Good Are Query
// Optimizers, Really?" (Leis et al., VLDB 2015): the Join Order Benchmark
// (JOB) over a synthetic correlated IMDB data set, five cardinality
// estimator profiles, cardinality injection, three cost models, five plan
// enumeration algorithms, and a metered execution engine.
//
// This package is the high-level facade. A System owns a generated
// database, its statistics and indexes, and the 113-query workload;
// Optimize, Execute and Estimate expose the optimizer pipeline with every
// knob the paper turns (estimator, cost model, physical design, engine
// rules, enumeration algorithm, tree shape). The full experiment drivers
// that regenerate the paper's tables and figures live in
// internal/experiments and are reachable through cmd/jobench.
package jobench

import (
	"context"
	"fmt"
	"sync"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/engine"
	"jobench/internal/imdb"
	"jobench/internal/index"
	"jobench/internal/optimizer"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/reopt"
	"jobench/internal/stats"
	"jobench/internal/trace"
	"jobench/internal/truecard"
	"jobench/internal/workload"
	"jobench/internal/world"
)

// Options configure Open.
type Options struct {
	// Workload names the benchmark world to open: "imdb" (the default —
	// the 21-table IMDB data set and the 113-query JOB workload), "tpch"
	// (the mini TPC-H world), or "imdb-skew" (IMDB with the skew and
	// correlation knobs turned up). See internal/workload.
	Workload string
	// Scale sizes the data set; 1.0 generates ~10,000 movies and ~450,000
	// rows across the 21 IMDB tables. Zero defaults to 1.0.
	Scale float64
	// Seed makes everything deterministic. Zero defaults to 42.
	Seed int64
	// Parallel is the worker-pool size for Open's index builds, for
	// Warmup's true-cardinality sweep, and for the per-subset fan-out
	// inside each single query's true-cardinality DP (truecard.Options.
	// Parallel). 0 means GOMAXPROCS; 1 is fully serial. Results are
	// identical at any setting.
	Parallel int
	// CacheDir enables the persistent snapshot store: the generated
	// database, its statistics, the three index sets, and every computed
	// true-cardinality store
	// are persisted beneath this directory and reloaded by the next Open
	// with the same Scale, Seed, and workload, skipping generation and
	// truth computation entirely. Snapshots are versioned and checksummed;
	// a corrupted, truncated, or version-bumped snapshot is regenerated
	// with a warning through Logf, never trusted and never fatal. Empty
	// disables caching.
	CacheDir string
	// Logf receives cache diagnostics (snapshot load/save warnings).
	// Nil means the standard library's log.Printf.
	Logf func(format string, args ...any)
	// FeedbackBytes bounds the adaptive plan-feedback cache in accounted
	// bytes (observed cardinalities keyed by query fingerprint, consulted
	// by OptimizeAdaptive/ExecuteAdaptive). Non-positive selects
	// reopt.DefaultBudgetBytes.
	FeedbackBytes int64
}

// IndexConfig selects a physical design (§4 of the paper).
type IndexConfig = imdb.IndexConfig

// The three physical designs.
const (
	NoIndexes = imdb.NoIndexes
	PKOnly    = imdb.PKOnly
	PKFK      = imdb.PKFK
)

// Estimator names accepted by PlanOptions.Estimator.
const (
	EstPostgres = "postgres"
	EstDBMSA    = "dbms-a"
	EstDBMSB    = "dbms-b"
	EstDBMSC    = "dbms-c"
	EstHyPer    = "hyper"
	EstTrue     = "true"
)

// Cost model names accepted by PlanOptions.CostModel.
const (
	ModelPostgres = "postgres"
	ModelTuned    = "tuned"
	ModelSimple   = "simple"
)

// PlanOptions control one optimization.
type PlanOptions struct {
	// Estimator is one of the Est* names; empty means EstPostgres.
	// EstTrue uses exact cardinalities (computed on demand).
	Estimator string
	// CostModel is one of the Model* names; empty means ModelSimple.
	CostModel string
	// Indexes selects the physical design (default PKFK).
	Indexes IndexConfig
	// DisableNestedLoops removes non-indexed nested-loop joins (§4.1).
	DisableNestedLoops bool
	// Shape restricts tree shapes (default bushy).
	Shape plan.Shape
	// Algorithm selects the enumerator (default exhaustive DP).
	Algorithm optimizer.Algorithm
	// Seed drives randomized enumerators.
	Seed int64
}

// MakePlanOptions builds PlanOptions from the string knob names shared by
// the CLI's flags and the service's JSON API, so both surfaces accept
// exactly the same vocabulary. Empty strings select the defaults
// (postgres estimates, simple cost model, PK+FK indexes, bushy trees,
// exhaustive DP).
func MakePlanOptions(estimator, costModel, indexes string, disableNLJ bool, shape, algorithm string) (PlanOptions, error) {
	opts := PlanOptions{Estimator: estimator, CostModel: costModel, DisableNestedLoops: disableNLJ}
	switch indexes {
	case "none":
		opts.Indexes = NoIndexes
	case "pk":
		opts.Indexes = PKOnly
	case "pkfk", "":
		opts.Indexes = PKFK
	default:
		return opts, fmt.Errorf("jobench: unknown index config %q (none|pk|pkfk)", indexes)
	}
	switch shape {
	case "bushy", "":
		opts.Shape = plan.Bushy
	case "leftdeep":
		opts.Shape = plan.LeftDeep
	case "rightdeep":
		opts.Shape = plan.RightDeep
	case "zigzag":
		opts.Shape = plan.ZigZag
	default:
		return opts, fmt.Errorf("jobench: unknown shape %q (bushy|leftdeep|rightdeep|zigzag)", shape)
	}
	switch algorithm {
	case "dp", "":
		opts.Algorithm = optimizer.DP
	case "dpccp":
		opts.Algorithm = optimizer.DPccp
	case "quickpick":
		opts.Algorithm = optimizer.QuickPick1000
	case "goo":
		opts.Algorithm = optimizer.GOO
	default:
		return opts, fmt.Errorf("jobench: unknown algorithm %q (dp|dpccp|quickpick|goo)", algorithm)
	}
	return opts, nil
}

// RunOptions control one execution.
type RunOptions struct {
	PlanOptions
	// Rehash lets hash joins grow their tables at runtime (§4.1).
	Rehash bool
	// WorkLimit aborts after this many work units (0 = unlimited).
	WorkLimit int64
}

// Result reports one executed query.
type Result struct {
	Rows     int64
	Work     int64
	TimedOut bool
	Plan     string // EXPLAIN rendering of the executed plan
}

// System is an opened benchmark instance: a view over one world.World
// (the database, statistics, index sets and true cardinalities, shared
// with every other view of that world) plus what is the facade's own —
// the query registry AddQuery extends, the estimator profiles, and the
// adaptive plan-feedback cache.
//
// Every method is safe for concurrent use by multiple goroutines — the
// service layer hammers one shared System from many requests at once. The
// pieces that make that true:
//
//   - The world, the index-set map, and the estimators are immutable after
//     construction. Optimize/Execute/Estimate* build all per-call state
//     fresh (providers, optimizer, executor) and only read the shared
//     structures.
//   - The query registry (order, graphs) is guarded by an RWMutex
//     so AddQuery can run concurrently with the read paths.
//   - True-cardinality stores are resolved by the world, which runs one DP
//     per query however many goroutines (or views) ask at once.
type System struct {
	w   *world.World
	idx map[IndexConfig]*index.Set

	qmu    sync.RWMutex
	order  []string
	graphs map[string]*query.Graph // each graph carries its query (Graph.Q)

	estimators map[string]cardest.Estimator

	feedback *reopt.FeedbackCache
}

// Open generates the data set, computes statistics and indexes, and loads
// the workload's query set. With Options.CacheDir set, the database,
// statistics, index sets, and all previously computed true cardinalities
// load from the snapshot store instead of being regenerated.
func Open(opts Options) (*System, error) {
	w, err := world.Open(world.Options{
		Workload: opts.Workload, Scale: opts.Scale, Seed: opts.Seed,
		Parallel: opts.Parallel, CacheDir: opts.CacheDir, Logf: opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	return NewSystem(w, opts.FeedbackBytes)
}

// NewSystem builds the facade view over an already-open world (the
// service pool shares one world between a System and an experiments Lab).
// feedbackBytes is Options.FeedbackBytes.
func NewSystem(w *world.World, feedbackBytes int64) (*System, error) {
	sopts := stats.Options{SampleSize: 30000, MCVTarget: 100, HistBuckets: 100, Seed: w.Key.Seed}
	configs := w.IndexConfigs()
	if err := w.Prepare([]stats.Options{sopts}, configs); err != nil {
		return nil, err
	}
	sdb := w.Stats(sopts)

	s := &System{
		w:        w,
		idx:      make(map[IndexConfig]*index.Set, len(configs)),
		graphs:   make(map[string]*query.Graph, len(w.Queries)),
		feedback: reopt.NewFeedbackCache(feedbackBytes),
		estimators: map[string]cardest.Estimator{
			EstPostgres: cardest.NewPostgres(w.DB, sdb),
			EstDBMSA:    cardest.NewDBMSA(w.DB, sdb),
			EstDBMSB:    cardest.NewDBMSB(w.DB, sdb),
			EstDBMSC:    cardest.NewDBMSC(w.DB, sdb),
			EstHyPer:    cardest.NewSample(w.DB, sdb),
		},
	}
	for _, cfg := range configs {
		s.idx[cfg], _ = w.Indexes(cfg) // resolved above
	}
	for _, q := range w.Queries {
		s.order = append(s.order, q.ID)
		s.graphs[q.ID] = w.Graphs[q.ID]
	}
	return s, nil
}

// Workload returns the name of the workload this system was opened with.
func (s *System) Workload() string { return s.w.Key.Workload }

// World returns the (workload, seed, scale) key of this system.
func (s *System) World() workload.Key { return s.w.Key }

// AddQuery registers a user-defined query from SQL text (the JOB dialect:
// SELECT ... FROM tbl alias, ... WHERE <conjunction of predicates and
// equi-joins>). The query is validated against the schema and becomes
// addressable by id in Optimize, Execute and the cardinality methods.
// AddQuery may run concurrently with the read paths.
func (s *System) AddQuery(id, sql string) error {
	q, err := query.ParseSQL(id, sql)
	if err != nil {
		return err
	}
	if err := q.Validate(s.w.DB); err != nil {
		return err
	}
	g, err := query.BuildGraph(q)
	if err != nil {
		return err
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if _, exists := s.graphs[id]; exists {
		return fmt.Errorf("jobench: query %q already exists", id)
	}
	s.order = append(s.order, id)
	s.graphs[id] = g
	return nil
}

// ExplainResult reports one instrumented (EXPLAIN ANALYZE) execution:
// the rendered tree plus the structured per-node actuals behind it.
type ExplainResult struct {
	// Text is the plan.ExplainAnalyze rendering with an executed-summary
	// footer.
	Text string
	// Nodes lists every operator in preorder with estimates, actuals,
	// q-error, work units, and wall time.
	Nodes []plan.AnalyzedNode
	// Rows, Work and TimedOut summarise the execution.
	Rows     int64
	Work     int64
	TimedOut bool
}

// ExplainAnalyze optimizes a query, executes it with per-operator stats
// collection, and renders the plan with the optimizer's estimated
// cardinality next to the *measured* cardinality of every operator — the
// classic way to see where estimates collapse, now from real execution
// rather than the truth store.
func (s *System) ExplainAnalyze(queryID string, opts RunOptions) (string, error) {
	res, err := s.ExplainAnalyzeContext(context.Background(), queryID, opts)
	if err != nil {
		return "", err
	}
	return res.Text, nil
}

// ExplainAnalyzeContext is ExplainAnalyze with cancellation and the
// structured result; see OptimizeContext.
func (s *System) ExplainAnalyzeContext(ctx context.Context, queryID string, opts RunOptions) (ExplainResult, error) {
	root, g, err := s.optimizeCtx(ctx, queryID, opts.PlanOptions)
	if err != nil {
		return ExplainResult{}, err
	}
	stats := make([]plan.NodeStats, plan.NumNodes(root))
	sp := trace.StartSpan(ctx, "engine.execute")
	res, err := engine.Run(s.w.DB, s.idx[s.indexConfig(opts.Indexes)], g, root, engine.Config{
		Rehash: opts.Rehash, WorkLimit: opts.WorkLimit, Stats: stats, Ctx: ctx,
	})
	sp.End(trace.String("query", queryID), trace.Int64("work", res.Work),
		trace.Int64("rows", res.Rows), trace.Bool("analyze", true))
	if err != nil && !res.TimedOut {
		return ExplainResult{}, err
	}
	text := plan.ExplainAnalyze(root, g, stats) +
		fmt.Sprintf("executed: %d rows, %d work units (timed out: %v)\n", res.Rows, res.Work, res.TimedOut)
	return ExplainResult{
		Text:     text,
		Nodes:    plan.Analyze(root, g, stats),
		Rows:     res.Rows,
		Work:     res.Work,
		TimedOut: res.TimedOut,
	}, nil
}

// indexConfig clamps a requested physical design to one the system built
// (unknown configs fall back to PKFK, the paper's default).
func (s *System) indexConfig(cfg IndexConfig) IndexConfig {
	if _, ok := s.idx[cfg]; !ok {
		return PKFK
	}
	return cfg
}

// QueryIDs lists the registered queries in family order (the 113 workload
// queries, then any AddQuery registrations in insertion order).
func (s *System) QueryIDs() []string {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// SQL renders a workload query as SQL text.
func (s *System) SQL(queryID string) (string, error) {
	g, err := s.graph(queryID)
	if err != nil {
		return "", err
	}
	return g.Q.SQL(), nil
}

// JoinGraphDot renders a query's join graph in Graphviz dot syntax (the
// paper's Fig. 2 for query 13d).
func (s *System) JoinGraphDot(queryID string) (string, error) {
	g, err := s.graph(queryID)
	if err != nil {
		return "", err
	}
	return g.Dot(), nil
}

// TableRows reports the generated table sizes.
func (s *System) TableRows() map[string]int {
	out := make(map[string]int)
	for _, name := range s.w.DB.TableNames() {
		out[name] = s.w.DB.Table(name).NumRows()
	}
	return out
}

func (s *System) graph(id string) (*query.Graph, error) {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	g, ok := s.graphs[id]
	if !ok {
		return nil, fmt.Errorf("jobench: unknown query %q (ids run 1a..33c)", id)
	}
	return g, nil
}

func (s *System) model(name string) (costmodel.Model, error) {
	switch name {
	case "", ModelSimple:
		return costmodel.NewSimple(), nil
	case ModelPostgres:
		return costmodel.NewPostgres(), nil
	case ModelTuned:
		return costmodel.NewTuned(), nil
	default:
		return nil, fmt.Errorf("jobench: unknown cost model %q", name)
	}
}

func (s *System) provider(ctx context.Context, queryID, estimator string) (cardest.Provider, error) {
	g, err := s.graph(queryID)
	if err != nil {
		return nil, err
	}
	if estimator == EstTrue {
		st, err := s.truthStore(ctx, queryID)
		if err != nil {
			return nil, err
		}
		return cardest.True{Store: st}, nil
	}
	if estimator == "" {
		estimator = EstPostgres
	}
	est, ok := s.estimators[estimator]
	if !ok {
		return nil, fmt.Errorf("jobench: unknown estimator %q", estimator)
	}
	return est.ForQuery(g), nil
}

// TruthStore computes (and caches) the true cardinality of every
// subexpression of a query. With a snapshot store configured, a
// previously persisted truth store loads from disk instead of being
// recomputed, and fresh computations are persisted for the next Open.
func (s *System) TruthStore(queryID string) (*truecard.Store, error) {
	return s.truthStore(context.Background(), queryID)
}

func (s *System) truthStore(ctx context.Context, queryID string) (*truecard.Store, error) {
	g, err := s.graph(queryID)
	if err != nil {
		return nil, err
	}
	return s.w.Truth(ctx, g)
}

// Warmup precomputes the true-cardinality store of every registered query
// across the world's worker pool (Options.Parallel; see world.Warm).
// Everything that consults the truth afterwards — ExplainAnalyze,
// TrueCardinality, the EstTrue provider — hits the cache.
func (s *System) Warmup() error {
	return s.WarmupContext(context.Background())
}

// WarmupContext is Warmup with cancellation: ctx flows into every
// true-cardinality DP, so a cancelled warmup (service shutdown, client
// disconnect) aborts the in-flight computations instead of finishing them
// orphaned.
func (s *System) WarmupContext(ctx context.Context) error {
	s.qmu.RLock()
	graphs := make([]*query.Graph, len(s.order))
	for i, id := range s.order {
		graphs[i] = s.graphs[id]
	}
	s.qmu.RUnlock()
	return s.w.Warm(ctx, graphs)
}

// TrueCardinality returns the exact result size of a workload query.
func (s *System) TrueCardinality(queryID string) (float64, error) {
	st, err := s.TruthStore(queryID)
	if err != nil {
		return 0, err
	}
	g, err := s.graph(queryID)
	if err != nil {
		return 0, err
	}
	v, _ := st.Card(query.FullSet(g.N))
	return v, nil
}

// EstimateCardinality returns an estimator's prediction of a query's result
// size.
func (s *System) EstimateCardinality(queryID, estimator string) (float64, error) {
	return s.EstimateCardinalityContext(context.Background(), queryID, estimator)
}

// EstimateCardinalityContext is EstimateCardinality with cancellation: ctx
// bounds the on-demand true-cardinality DP when estimator is EstTrue.
func (s *System) EstimateCardinalityContext(ctx context.Context, queryID, estimator string) (float64, error) {
	g, err := s.graph(queryID)
	if err != nil {
		return 0, err
	}
	prov, err := s.provider(ctx, queryID, estimator)
	if err != nil {
		return 0, err
	}
	return prov.Card(query.FullSet(g.N)), nil
}

// Optimize plans a query and returns its EXPLAIN rendering plus estimated
// cost.
func (s *System) Optimize(queryID string, opts PlanOptions) (string, float64, error) {
	return s.OptimizeContext(context.Background(), queryID, opts)
}

// OptimizeContext is Optimize with cancellation: ctx bounds the on-demand
// true-cardinality DP the EstTrue provider may trigger (the service hands
// the request context in, so a client disconnect or shutdown aborts it).
func (s *System) OptimizeContext(ctx context.Context, queryID string, opts PlanOptions) (string, float64, error) {
	root, g, err := s.optimizeCtx(ctx, queryID, opts)
	if err != nil {
		return "", 0, err
	}
	return plan.Explain(root, g), root.ECost, nil
}

func (s *System) optimizeCtx(ctx context.Context, queryID string, opts PlanOptions) (*plan.Node, *query.Graph, error) {
	g, err := s.graph(queryID)
	if err != nil {
		return nil, nil, err
	}
	prov, err := s.provider(ctx, queryID, opts.Estimator)
	if err != nil {
		return nil, nil, err
	}
	model, err := s.model(opts.CostModel)
	if err != nil {
		return nil, nil, err
	}
	o := &optimizer.Optimizer{
		DB:         s.w.DB,
		Model:      model,
		Indexes:    s.idx[s.indexConfig(opts.Indexes)],
		DisableNLJ: opts.DisableNestedLoops,
		Shape:      opts.Shape,
		Algorithm:  opts.Algorithm,
		Seed:       opts.Seed,
	}
	sp := trace.StartSpan(ctx, "optimize")
	root, err := o.Optimize(g, prov)
	sp.End(trace.String("query", queryID))
	if err != nil {
		return nil, nil, err
	}
	return root, g, nil
}

// Execute optimizes and runs a query.
func (s *System) Execute(queryID string, opts RunOptions) (Result, error) {
	return s.ExecuteContext(context.Background(), queryID, opts)
}

// ExecuteContext is Execute with cancellation; see OptimizeContext.
func (s *System) ExecuteContext(ctx context.Context, queryID string, opts RunOptions) (Result, error) {
	root, g, err := s.optimizeCtx(ctx, queryID, opts.PlanOptions)
	if err != nil {
		return Result{}, err
	}
	sp := trace.StartSpan(ctx, "engine.execute")
	res, err := engine.Run(s.w.DB, s.idx[s.indexConfig(opts.Indexes)], g, root, engine.Config{
		Rehash:    opts.Rehash,
		WorkLimit: opts.WorkLimit,
		Ctx:       ctx,
	})
	sp.End(trace.String("query", queryID), trace.Int64("work", res.Work),
		trace.Int64("rows", res.Rows), trace.Bool("timed_out", res.TimedOut))
	out := Result{
		Rows:     res.Rows,
		Work:     res.Work,
		TimedOut: res.TimedOut,
		Plan:     plan.Explain(root, g),
	}
	if err != nil && !res.TimedOut {
		return out, err
	}
	return out, nil
}
