// Package optimizer is the facade tying the query optimizer together:
// given a plan space (a join graph, a cardinality provider — an estimator,
// injected values, or the truth — a cost model, a physical design and the
// engine rules, all in one enum.Space) and one of the §6 enumeration
// algorithms (the exhaustive DP, QuickPick-1000 or GOO), it produces a
// physical plan. It is the programmatic equivalent of the paper's modified
// PostgreSQL plus its standalone optimizer (§2.4, §6).
package optimizer

import (
	"fmt"

	"jobench/internal/enum"
	"jobench/internal/plan"
	"jobench/internal/query"
)

// Algorithm selects the plan enumeration strategy.
type Algorithm int

const (
	// DP is exhaustive dynamic programming over connected subgraphs.
	DP Algorithm = iota
	// QuickPick1000 keeps the cheapest of 1000 random plans.
	QuickPick1000
	// GOO is Greedy Operator Ordering.
	GOO
)

// String returns the algorithm's name as the reports print it.
func (a Algorithm) String() string {
	switch a {
	case DP:
		return "Dynamic Programming"
	case QuickPick1000:
		return "Quickpick-1000"
	case GOO:
		return "Greedy Operator Ordering"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Optimize plans sp's query with alg (seed drives QuickPick) and checks
// that the plan joins every relation exactly once. sp is not written, so
// one Space may be shared across goroutines.
func Optimize(sp *enum.Space, alg Algorithm, seed int64) (*plan.Node, error) {
	if sp.Model == nil {
		return nil, fmt.Errorf("optimizer: no cost model")
	}
	var (
		root *plan.Node
		err  error
	)
	switch alg {
	case DP:
		root, err = enum.DP(sp)
	case QuickPick1000:
		root, err = enum.QuickPickBest(sp, 1000, seed)
	case GOO:
		root, err = enum.GOO(sp)
	default:
		return nil, fmt.Errorf("optimizer: unknown algorithm %v", alg)
	}
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(root, sp.G, query.FullSet(sp.G.N)); err != nil {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", err)
	}
	return root, nil
}
