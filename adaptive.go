package jobench

import (
	"context"

	"jobench/internal/optimizer"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/reopt"
	"jobench/internal/trace"
)

// AdaptiveOptions control one adaptive execution: the usual run knobs plus
// the re-optimization policy.
type AdaptiveOptions struct {
	RunOptions
	// QErrThreshold is the q-error above which an observed intermediate
	// triggers a replan (0 selects reopt.DefaultQErrThreshold).
	QErrThreshold float64
	// MaxReplans bounds re-optimizations per query (0 selects
	// reopt.DefaultMaxReplans).
	MaxReplans int
}

// AdaptivePlan reports an adaptive optimization: the plan, its estimated
// cost, and how much previously observed truth went into it.
type AdaptivePlan struct {
	// Plan is the EXPLAIN rendering.
	Plan string
	// Cost is the optimizer's estimated cost.
	Cost float64
	// FeedbackHit reports whether the plan-feedback cache held observed
	// cardinalities for this query's fingerprint.
	FeedbackHit bool
	// Pinned is the number of observed cardinalities injected over the
	// estimator.
	Pinned int
}

// AdaptiveResult reports an adaptive execution.
type AdaptiveResult struct {
	Result
	// Replans counts mid-execution re-optimizations.
	Replans int
	// Probes counts plan subtrees executed to observe their cardinality.
	Probes int
	// FeedbackHit reports whether planning started from cached
	// observations.
	FeedbackHit bool
	// Pinned is the number of cached cardinalities injected before the
	// first plan.
	Pinned int
}

// OptimizeAdaptive plans a query with the plan-feedback cache consulted
// first: when a previous adaptive execution of the same query fingerprint
// observed intermediate cardinalities, they are pinned over the estimator,
// so the misestimates that execution paid for are skipped entirely.
func (s *System) OptimizeAdaptive(queryID string, opts PlanOptions) (AdaptivePlan, error) {
	return s.OptimizeAdaptiveContext(context.Background(), queryID, opts)
}

// OptimizeAdaptiveContext is OptimizeAdaptive with cancellation; see
// OptimizeContext.
func (s *System) OptimizeAdaptiveContext(ctx context.Context, queryID string, opts PlanOptions) (AdaptivePlan, error) {
	g, err := s.graph(queryID)
	if err != nil {
		return AdaptivePlan{}, err
	}
	prov, err := s.provider(ctx, queryID, opts.Estimator)
	if err != nil {
		return AdaptivePlan{}, err
	}
	model, err := s.model(opts.CostModel)
	if err != nil {
		return AdaptivePlan{}, err
	}
	canon := reopt.Canonical(g)
	cached := s.feedback.Get(canon.FP)
	pinned := canon.MapFromCanon(cached)
	planProv := reopt.NewPropagator(prov, pinned)
	o := &optimizer.Optimizer{
		DB:         s.w.DB,
		Model:      model,
		Indexes:    s.idx[s.indexConfig(opts.Indexes)],
		DisableNLJ: opts.DisableNestedLoops,
		Shape:      opts.Shape,
		Algorithm:  opts.Algorithm,
		Seed:       opts.Seed,
	}
	osp := trace.StartSpan(ctx, "optimize")
	root, err := o.Optimize(g, planProv)
	osp.End(trace.String("query", queryID), trace.Bool("feedback_hit", cached != nil),
		trace.Int64("pinned", int64(len(pinned))))
	if err != nil {
		return AdaptivePlan{}, err
	}
	return AdaptivePlan{
		Plan:        plan.Explain(root, g),
		Cost:        root.ECost,
		FeedbackHit: cached != nil,
		Pinned:      len(pinned),
	}, nil
}

// ExecuteAdaptive optimizes and runs a query adaptively: plan subtrees are
// executed bottom-up, observed intermediate cardinalities replace estimates
// whose q-error exceeds the threshold (re-entering plan enumeration), and
// everything observed is recorded in the plan-feedback cache so the next
// request with the same fingerprint plans from truth.
func (s *System) ExecuteAdaptive(queryID string, opts AdaptiveOptions) (AdaptiveResult, error) {
	return s.ExecuteAdaptiveContext(context.Background(), queryID, opts)
}

// ExecuteAdaptiveContext is ExecuteAdaptive with cancellation; see
// OptimizeContext.
func (s *System) ExecuteAdaptiveContext(ctx context.Context, queryID string, opts AdaptiveOptions) (AdaptiveResult, error) {
	g, err := s.graph(queryID)
	if err != nil {
		return AdaptiveResult{}, err
	}
	prov, err := s.provider(ctx, queryID, opts.Estimator)
	if err != nil {
		return AdaptiveResult{}, err
	}
	model, err := s.model(opts.CostModel)
	if err != nil {
		return AdaptiveResult{}, err
	}
	canon := reopt.Canonical(g)
	cached := s.feedback.Get(canon.FP)
	pinned := canon.MapFromCanon(cached)
	sp := trace.StartSpan(ctx, "execute.adaptive")
	rres, err := reopt.Run(ctx, g, prov, pinned, reopt.Config{
		DB:            s.w.DB,
		Indexes:       s.idx[s.indexConfig(opts.Indexes)],
		Model:         model,
		DisableNLJ:    opts.DisableNestedLoops,
		Shape:         opts.Shape,
		Algorithm:     opts.Algorithm,
		Seed:          opts.Seed,
		Rehash:        opts.Rehash,
		WorkLimit:     opts.WorkLimit,
		QErrThreshold: opts.QErrThreshold,
		MaxReplans:    opts.MaxReplans,
	})
	sp.End(trace.String("query", queryID), trace.Int64("replans", int64(rres.Replans)),
		trace.Int64("probes", int64(len(rres.Steps))), trace.Int64("work", rres.Work))
	if err != nil {
		return AdaptiveResult{}, err
	}
	if len(rres.Observed) > 0 {
		s.feedback.Put(canon.FP, canon.MapToCanon(rres.Observed))
	}
	return AdaptiveResult{
		Result: Result{
			Rows:     rres.Rows,
			Work:     rres.Work,
			TimedOut: rres.TimedOut,
			Plan:     plan.Explain(rres.Plan, g),
		},
		Replans:     rres.Replans,
		Probes:      len(rres.Steps),
		FeedbackHit: cached != nil,
		Pinned:      len(pinned),
	}, nil
}

// FeedbackStats reports the plan-feedback cache counters (hits, misses,
// entries, bytes, evictions) — the service's /metrics reads these.
func (s *System) FeedbackStats() reopt.Stats { return s.feedback.Stats() }

// feedbackPinned is a test hook: the cached observations for a query, in
// query coordinates.
func (s *System) feedbackPinned(queryID string) map[query.BitSet]float64 {
	g, err := s.graph(queryID)
	if err != nil {
		return nil
	}
	canon := reopt.Canonical(g)
	return canon.MapFromCanon(s.feedback.Get(canon.FP))
}
