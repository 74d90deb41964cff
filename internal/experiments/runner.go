package experiments

import (
	"context"

	"jobench/internal/parallel"
	"jobench/internal/query"
)

// This file is the shared parallel experiment runner. Every driver in this
// package sweeps a grid of independent cells — (estimator, query),
// (cost model, query), (index config, query) — and the paper's full
// 113-query workload makes those sweeps the dominant cost of reproducing
// its tables and figures. RunCells fans a cell slice out across a bounded
// worker pool while keeping the assembled results in input order, so a
// parallel run renders byte-identical reports to a serial one. Randomized
// cells (QuickPick sampling) derive their seed from the cell's position in
// the sweep, never from shared RNG state, which keeps every report
// independent of worker interleaving.

// RunCells evaluates fn over every cell on up to workers goroutines and
// returns the results in input order; see parallel.RunCells for the full
// contract (inline serial path, worker defaulting, error joining,
// cancellation). Drivers pass Config.Parallel straight through — the
// <=0-means-GOMAXPROCS policy lives in one place, inside parallel.RunCells.
func RunCells[C, R any](ctx context.Context, workers int, cells []C, fn func(ctx context.Context, cell C) (R, error)) ([]R, error) {
	return parallel.RunCells(ctx, workers, cells, fn)
}

// runQueries fans fn out over the workload, one cell per query, and returns
// the per-query results in workload order. It is the shape almost every
// driver needs: the per-query work (truth lookups, estimation, planning,
// execution) is independent, and the driver folds the ordered slice into
// its result exactly as the old serial loop did. The caller's ctx bounds
// the whole sweep (the service cancels it on shutdown or client
// disconnect), and the pool's derived cancellable ctx is forwarded so fn
// can hand it to Truth (one query's failure then aborts the sibling
// computations still in flight).
func runQueries[R any](ctx context.Context, l *Lab, fn func(ctx context.Context, qi int, q *query.Query) (R, error)) ([]R, error) {
	cells := make([]int, len(l.Queries))
	for i := range cells {
		cells[i] = i
	}
	return RunCells(ctx, l.W.Options.Parallel, cells, func(ctx context.Context, qi int) (R, error) {
		return fn(ctx, qi, l.Queries[qi])
	})
}
