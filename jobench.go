// Package jobench is a from-scratch Go reproduction of "How Good Are Query
// Optimizers, Really?" (Leis et al., VLDB 2015): the Join Order Benchmark
// (JOB) over a synthetic correlated IMDB data set, five cardinality
// estimator profiles, cardinality injection, three cost models, three plan
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
	"slices"
	"sync"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/engine"
	"jobench/internal/enum"
	"jobench/internal/index"
	"jobench/internal/optimizer"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/trace"
	"jobench/internal/truecard"
	"jobench/internal/workload"
	"jobench/internal/world"
)

// Options configure Open: the workload, scale and seed of the world to
// open, and how to build it (see world.Options for every field).
type Options = world.Options

// IndexConfig selects a physical design (§4 of the paper).
type IndexConfig = index.Config

// The three physical designs.
const (
	NoIndexes = index.NoIndexes
	PKOnly    = index.PKOnly
	PKFK      = index.PKFK
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
	// Indexes selects the physical design. Its zero value is NoIndexes;
	// only MakePlanOptions reads an empty label as PKFK.
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
	opts := PlanOptions{Estimator: estimator, CostModel: costModel, DisableNestedLoops: disableNLJ, Indexes: PKFK}
	if indexes != "" {
		found := false
		for _, cfg := range index.Designs() {
			if cfg.Label() == indexes {
				opts.Indexes, found = cfg, true
			}
		}
		if !found {
			return opts, fmt.Errorf("jobench: unknown index config %q (%s)", indexes, index.Labels())
		}
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
	case "quickpick":
		opts.Algorithm = optimizer.QuickPick1000
	case "goo":
		opts.Algorithm = optimizer.GOO
	default:
		return opts, fmt.Errorf("jobench: unknown algorithm %q (dp|quickpick|goo)", algorithm)
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
// the query registry AddQuery extends and the estimator profiles.
//
// Every method is safe for concurrent use by multiple goroutines — the
// service layer hammers one shared System from many requests at once. The
// pieces that make that true:
//
//   - The world, the index-set map, and the estimators are immutable after
//     construction. Optimize/Execute/Estimate* build their per-call state
//     (plan space, DP working set, executor) fresh and only read the
//     shared structures.
//   - The query registry (order, queries) is guarded by an RWMutex
//     so AddQuery can run concurrently with the read paths.
//   - Each registered query keeps one provider per estimator profile,
//     built by the first call that needs it (sync.Once: concurrent callers
//     share that one build) and read-only afterwards.
//   - True-cardinality stores are resolved by the world, which runs one DP
//     per query however many goroutines (or views) ask at once.
type System struct {
	w   *world.World
	idx map[IndexConfig]*index.Set

	qmu     sync.RWMutex
	order   []string
	queries map[string]*registered

	estimators [len(estimatorNames)]cardest.Estimator
}

// estimatorNames are the estimator profiles a System builds providers
// from, in the order of System.estimators and registered.provs. EstTrue is
// not one of them: its provider reads the world's truth store.
var estimatorNames = [...]string{EstPostgres, EstDBMSA, EstDBMSB, EstDBMSC, EstHyPer}

// registered is one query of the registry: its join graph (which carries
// the query, Graph.Q) and its provider under each estimator profile. A
// provider is a pure function of the graph and the world's statistics, so
// it is built once, on first use, and kept for the System's life: the
// 113 JOB queries hold about 40 KiB of providers per profile.
type registered struct {
	g     *query.Graph
	provs [len(estimatorNames)]struct {
		once sync.Once
		p    cardest.Provider
	}
}

// Open generates the data set, computes statistics and indexes, and loads
// the workload's query set. With Options.CacheDir set, the database,
// statistics, index sets, and all previously computed true cardinalities
// load from the snapshot store instead of being regenerated.
func Open(opts Options) (*System, error) {
	w, err := world.Open(opts)
	if err != nil {
		return nil, err
	}
	return NewSystem(w)
}

// NewSystem builds the facade view over an already-open world (the
// service pool shares one world between a System and an experiments Lab).
func NewSystem(w *world.World) (*System, error) {
	sopts := stats.DefaultOptions(w.Key.Seed)
	configs := w.IndexConfigs()
	if err := w.Prepare([]stats.Options{sopts}, configs); err != nil {
		return nil, err
	}
	sdb := w.Stats(sopts)

	s := &System{
		w:       w,
		idx:     make(map[IndexConfig]*index.Set, len(configs)),
		queries: make(map[string]*registered, len(w.Queries)),
		estimators: [...]cardest.Estimator{ // in estimatorNames order
			cardest.NewPostgres(w.DB, sdb),
			cardest.NewDBMSA(w.DB, sdb),
			cardest.NewDBMSB(w.DB, sdb),
			cardest.NewDBMSC(w.DB, sdb),
			cardest.NewSample(w.DB, sdb),
		},
	}
	for _, cfg := range configs {
		s.idx[cfg], _ = w.Indexes(cfg) // resolved above
	}
	for _, q := range w.Queries {
		s.order = append(s.order, q.ID)
		s.queries[q.ID] = &registered{g: w.Graphs[q.ID]}
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
	if _, exists := s.queries[id]; exists {
		return fmt.Errorf("jobench: query %q already exists", id)
	}
	s.order = append(s.order, id)
	s.queries[id] = &registered{g: g}
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
// rather than the truth store. ctx cancels planning and execution; see
// OptimizeContext.
func (s *System) ExplainAnalyze(ctx context.Context, queryID string, opts RunOptions) (ExplainResult, error) {
	root, sp, err := s.optimizeCtx(ctx, queryID, opts.PlanOptions)
	if err != nil {
		return ExplainResult{}, err
	}
	g := sp.G
	stats := make([]plan.NodeStats, plan.NumNodes(root))
	span := trace.StartSpan(ctx, "engine.execute")
	res, err := engine.Run(s.w.DB, sp.Indexes, g, root, engine.Config{
		Rehash: opts.Rehash, WorkLimit: opts.WorkLimit, Stats: stats, Ctx: ctx,
	})
	span.End(trace.String("query", queryID), trace.Int64("work", res.Work),
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
	q, err := s.query(queryID)
	if err != nil {
		return "", err
	}
	return q.g.Q.SQL(), nil
}

// JoinGraphDot renders a query's join graph in Graphviz dot syntax (the
// paper's Fig. 2 for query 13d).
func (s *System) JoinGraphDot(queryID string) (string, error) {
	q, err := s.query(queryID)
	if err != nil {
		return "", err
	}
	return q.g.Dot(), nil
}

// TableRows reports the generated table sizes.
func (s *System) TableRows() map[string]int {
	out := make(map[string]int)
	for _, name := range s.w.DB.TableNames() {
		out[name] = s.w.DB.Table(name).NumRows()
	}
	return out
}

func (s *System) query(id string) (*registered, error) {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	q, ok := s.queries[id]
	if !ok {
		return nil, fmt.Errorf("jobench: unknown query %q (ids run 1a..33c)", id)
	}
	return q, nil
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

// provider returns the query's provider under the named estimator: the
// world's truth store for EstTrue, else the query's memoized provider,
// which the first caller builds.
func (s *System) provider(ctx context.Context, q *registered, estimator string) (cardest.Provider, error) {
	if estimator == EstTrue {
		st, err := s.w.Truth(ctx, q.g)
		if err != nil {
			return nil, err
		}
		return cardest.True{Store: st}, nil
	}
	if estimator == "" {
		estimator = EstPostgres
	}
	i := slices.Index(estimatorNames[:], estimator)
	if i < 0 {
		return nil, fmt.Errorf("jobench: unknown estimator %q", estimator)
	}
	lp := &q.provs[i]
	lp.once.Do(func() { lp.p = s.estimators[i].ForQuery(q.g) })
	return lp.p, nil
}

// TruthStore computes (and caches) the true cardinality of every
// subexpression of a query. With a snapshot store configured, a
// previously persisted truth store loads from disk instead of being
// recomputed, and fresh computations are persisted for the next Open.
func (s *System) TruthStore(queryID string) (*truecard.Store, error) {
	q, err := s.query(queryID)
	if err != nil {
		return nil, err
	}
	return s.w.Truth(context.Background(), q.g)
}

// Warmup precomputes the true-cardinality store of every registered query
// across the world's worker pool (Options.Parallel; see world.Warm).
// Everything that consults the truth afterwards — ExplainAnalyze,
// TrueCardinality, the EstTrue provider — hits the cache.
func (s *System) Warmup() error {
	s.qmu.RLock()
	graphs := make([]*query.Graph, len(s.order))
	for i, id := range s.order {
		graphs[i] = s.queries[id].g
	}
	s.qmu.RUnlock()
	return s.w.Warm(context.Background(), graphs)
}

// TrueCardinality returns the exact result size of a workload query.
func (s *System) TrueCardinality(queryID string) (float64, error) {
	st, err := s.TruthStore(queryID)
	if err != nil {
		return 0, err
	}
	q, err := s.query(queryID)
	if err != nil {
		return 0, err
	}
	v, _ := st.Card(query.FullSet(q.g.N))
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
	q, err := s.query(queryID)
	if err != nil {
		return 0, err
	}
	prov, err := s.provider(ctx, q, estimator)
	if err != nil {
		return 0, err
	}
	return prov.Card(query.FullSet(q.g.N)), nil
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
	root, sp, err := s.optimizeCtx(ctx, queryID, opts)
	if err != nil {
		return "", 0, err
	}
	return plan.Explain(root, sp.G), root.ECost, nil
}

// space resolves what opts name for one query — its join graph, the
// estimator's provider, the cost model and the physical design — into the
// plan space every planning path starts from.
func (s *System) space(ctx context.Context, queryID string, opts PlanOptions) (*enum.Space, error) {
	q, err := s.query(queryID)
	if err != nil {
		return nil, err
	}
	idx, ok := s.idx[opts.Indexes]
	if !ok {
		return nil, fmt.Errorf("jobench: unknown index config %v", opts.Indexes)
	}
	prov, err := s.provider(ctx, q, opts.Estimator)
	if err != nil {
		return nil, err
	}
	model, err := s.model(opts.CostModel)
	if err != nil {
		return nil, err
	}
	return &enum.Space{
		G: q.g, DB: s.w.DB, Cards: prov, Model: model, Indexes: idx,
		DisableNLJ: opts.DisableNestedLoops, Shape: opts.Shape,
	}, nil
}

func (s *System) optimizeCtx(ctx context.Context, queryID string, opts PlanOptions) (*plan.Node, *enum.Space, error) {
	sp, err := s.space(ctx, queryID, opts)
	if err != nil {
		return nil, nil, err
	}
	span := trace.StartSpan(ctx, "optimize")
	root, err := optimizer.Optimize(sp, opts.Algorithm, opts.Seed)
	span.End(trace.String("query", queryID))
	if err != nil {
		return nil, nil, err
	}
	return root, sp, nil
}

// Execute optimizes and runs a query.
func (s *System) Execute(queryID string, opts RunOptions) (Result, error) {
	return s.ExecuteContext(context.Background(), queryID, opts)
}

// ExecuteContext is Execute with cancellation; see OptimizeContext.
func (s *System) ExecuteContext(ctx context.Context, queryID string, opts RunOptions) (Result, error) {
	root, sp, err := s.optimizeCtx(ctx, queryID, opts.PlanOptions)
	if err != nil {
		return Result{}, err
	}
	g := sp.G
	span := trace.StartSpan(ctx, "engine.execute")
	res, err := engine.Run(s.w.DB, sp.Indexes, g, root, engine.Config{
		Rehash:    opts.Rehash,
		WorkLimit: opts.WorkLimit,
		Ctx:       ctx,
	})
	span.End(trace.String("query", queryID), trace.Int64("work", res.Work),
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
