// Package optimizer is the facade tying the query optimizer together:
// given a join graph, a cardinality provider (an estimator, injected
// values, or the truth), a cost model, a physical design and one of the
// §6 enumeration algorithms (the exhaustive DP, QuickPick-1000 or GOO), it
// produces a physical plan. It is the programmatic equivalent of the
// paper's modified PostgreSQL plus its standalone optimizer (§2.4, §6).
package optimizer

import (
	"fmt"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/enum"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/storage"
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

// Optimizer holds the fixed configuration; Optimize may be called for many
// queries.
type Optimizer struct {
	DB      *storage.Database
	Model   costmodel.Model
	Indexes plan.IndexChecker

	// DisableNLJ removes the risky non-indexed nested-loop joins (§4.1).
	DisableNLJ bool
	// Shape restricts the tree shapes every enumerator builds (§6.2).
	Shape plan.Shape
	// Algorithm selects the enumerator.
	Algorithm Algorithm
	// Seed drives QuickPick.
	Seed int64
}

// Optimize computes a plan for g using the given cardinality provider.
func (o *Optimizer) Optimize(g *query.Graph, cards cardest.Provider) (*plan.Node, error) {
	if o.Model == nil {
		return nil, fmt.Errorf("optimizer: no cost model")
	}
	sp := &enum.Space{
		G:          g,
		DB:         o.DB,
		Cards:      cards,
		Model:      o.Model,
		Indexes:    o.Indexes,
		DisableNLJ: o.DisableNLJ,
		Shape:      o.Shape,
	}
	var (
		root *plan.Node
		err  error
	)
	switch o.Algorithm {
	case DP:
		root, err = enum.DP(sp)
	case QuickPick1000:
		root, err = enum.QuickPickBest(sp, 1000, o.Seed)
	case GOO:
		root, err = enum.GOO(sp)
	default:
		return nil, fmt.Errorf("optimizer: unknown algorithm %v", o.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(root, g, query.FullSet(g.N)); err != nil {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", err)
	}
	return root, nil
}
