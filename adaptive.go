package jobench

import (
	"context"

	"jobench/internal/plan"
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

// AdaptiveResult reports an adaptive execution.
type AdaptiveResult struct {
	Result
	// Replans counts mid-execution re-optimizations.
	Replans int
	// Probes counts plan subtrees executed to observe their cardinality.
	Probes int
}

// ExecuteAdaptive optimizes and runs a query adaptively: plan subtrees are
// executed bottom-up, and observed intermediate cardinalities replace
// estimates whose q-error exceeds the threshold (re-entering plan
// enumeration). Every call plans cold from the estimator: observations do
// not outlive the execution that made them.
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
	sp := trace.StartSpan(ctx, "execute.adaptive")
	rres, err := reopt.Run(ctx, g, prov, reopt.Config{
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
	return AdaptiveResult{
		Result: Result{
			Rows:     rres.Rows,
			Work:     rres.Work,
			TimedOut: rres.TimedOut,
			Plan:     plan.Explain(rres.Plan, g),
		},
		Replans: rres.Replans,
		Probes:  len(rres.Steps),
	}, nil
}
