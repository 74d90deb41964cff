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
// not outlive the execution that made them. ctx cancels planning and
// execution; see OptimizeContext.
func (s *System) ExecuteAdaptive(ctx context.Context, queryID string, opts AdaptiveOptions) (AdaptiveResult, error) {
	sp, err := s.space(ctx, queryID, opts.PlanOptions)
	if err != nil {
		return AdaptiveResult{}, err
	}
	span := trace.StartSpan(ctx, "execute.adaptive")
	rres, err := reopt.Run(ctx, sp, reopt.Config{
		Algorithm:     opts.Algorithm,
		Seed:          opts.Seed,
		Rehash:        opts.Rehash,
		WorkLimit:     opts.WorkLimit,
		QErrThreshold: opts.QErrThreshold,
		MaxReplans:    opts.MaxReplans,
	})
	span.End(trace.String("query", queryID), trace.Int64("replans", int64(rres.Replans)),
		trace.Int64("probes", int64(len(rres.Steps))), trace.Int64("work", rres.Work))
	if err != nil {
		return AdaptiveResult{}, err
	}
	return AdaptiveResult{
		Result: Result{
			Rows:     rres.Rows,
			Work:     rres.Work,
			TimedOut: rres.TimedOut,
			Plan:     plan.Explain(rres.Plan, sp.G),
		},
		Replans: rres.Replans,
		Probes:  len(rres.Steps),
	}, nil
}
