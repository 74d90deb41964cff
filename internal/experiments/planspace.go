package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/enum"
	"jobench/internal/index"
	"jobench/internal/metrics"
	"jobench/internal/optimizer"
	"jobench/internal/plan"
	"jobench/internal/query"
)

// figure9Queries are the five representative queries of Fig. 9.
var figure9Queries = []string{"6a", "13a", "16d", "17b", "25c"}

// indexConfigs enumerates the paper's three physical designs in order.
func (l *Lab) indexConfigs() []struct {
	Label string
	Idx   *index.Set
} {
	return []struct {
		Label string
		Idx   *index.Set
	}{
		{"no indexes", l.IdxNone},
		{"PK indexes", l.IdxPK},
		{"PK + FK indexes", l.IdxPKFK},
	}
}

// spaceFor builds the §6 standalone-optimizer space: true cardinalities,
// the simple cost model, nested-loop joins disabled.
func (l *Lab) spaceFor(qid string, idx *index.Set, prov cardest.Provider, shape plan.Shape) *enum.Space {
	return &enum.Space{
		G:          l.Graphs[qid],
		DB:         l.DB,
		Cards:      prov,
		Model:      costmodel.NewSimple(),
		Indexes:    idx,
		DisableNLJ: true,
		Shape:      shape,
	}
}

// Figure9Result holds the random-plan cost distributions.
type Figure9Result struct {
	Samples int
	Panels  []Figure9Panel

	// The §6.1 workload-wide aggregates, per index configuration:
	// fraction of random plans within 1.5x of the configuration's optimal
	// plan, and the mean worst/best cost ratio per query.
	Frac15        map[string]float64
	MeanWorstBest map[string]float64
}

// Figure9Panel is one density plot: a query under one index configuration.
type Figure9Panel struct {
	Query  string
	Config string
	// Costs are normalised by the optimal plan with FK indexes.
	Box     metrics.Boxplot
	Optimal float64 // this configuration's optimum / FK optimum
}

// DefaultSamples is fig9's random-plans-per-query count when none is given.
const DefaultSamples = 10000

// Figure9 samples QuickPick plans for the five representative queries under
// all three index configurations, and computes the §6.1 workload aggregates
// from a smaller per-query sample.
func (l *Lab) Figure9(ctx context.Context, samples int) (*Figure9Result, error) {
	if samples <= 0 {
		samples = DefaultSamples
	}
	res := &Figure9Result{
		Samples:       samples,
		Frac15:        make(map[string]float64),
		MeanWorstBest: make(map[string]float64),
	}
	var qids []string
	for _, qid := range figure9Queries {
		if _, ok := l.Graphs[qid]; ok {
			qids = append(qids, qid)
		}
	}
	// The normaliser of every panel is the query's optimal plan with FK
	// indexes; compute it once per query, not once per (query, config).
	fkOpts, err := RunCells(ctx, l.W.Options.Parallel, qids,
		func(ctx context.Context, qid string) (*plan.Node, error) {
			st, err := l.Truth(ctx, qid)
			if err != nil {
				return nil, err
			}
			return enum.DP(l.spaceFor(qid, l.IdxPKFK, cardest.True{Store: st}, plan.Bushy))
		})
	if err != nil {
		return nil, err
	}
	// One cell per (query, config) panel. The QuickPick RNG is seeded from
	// the cell's position in the sweep (the panel index, exactly as the
	// serial loop numbered them), never from shared state, so the sampled
	// plans do not depend on worker interleaving.
	type panelCell struct {
		qid    string
		qIdx   int
		cfgIdx int
	}
	var cells []panelCell
	for qi, qid := range qids {
		for ci := range l.indexConfigs() {
			cells = append(cells, panelCell{qid: qid, qIdx: qi, cfgIdx: ci})
		}
	}
	panels, err := RunCells(ctx, l.W.Options.Parallel, cells,
		func(ctx context.Context, c panelCell) (Figure9Panel, error) {
			st, err := l.Truth(ctx, c.qid)
			if err != nil {
				return Figure9Panel{}, err
			}
			truth := cardest.True{Store: st}
			fkOpt := fkOpts[c.qIdx]
			cfg := l.indexConfigs()[c.cfgIdx]
			sp := l.spaceFor(c.qid, cfg.Idx, truth, plan.Bushy)
			opt, err := enum.DP(sp)
			if err != nil {
				return Figure9Panel{}, err
			}
			rng := rand.New(rand.NewSource(l.W.Options.Seed + int64(c.qIdx*len(l.indexConfigs())+c.cfgIdx)))
			costs := make([]float64, 0, samples)
			for i := 0; i < samples; i++ {
				p, err := enum.QuickPick(sp, rng)
				if err != nil {
					return Figure9Panel{}, err
				}
				costs = append(costs, p.ECost/fkOpt.ECost)
			}
			return Figure9Panel{
				Query: c.qid, Config: cfg.Label,
				Box:     metrics.NewBoxplot(costs),
				Optimal: opt.ECost / fkOpt.ECost,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	res.Panels = panels

	// Workload-wide §6.1 aggregates with a smaller sample per query.
	wlSamples := samples / 10
	if wlSamples < 200 {
		wlSamples = 200
	}
	for _, cfg := range l.indexConfigs() {
		type aggCell struct {
			within, total int
			ratio         float64
		}
		perQuery, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (aggCell, error) {
			st, err := l.Truth(ctx, q.ID)
			if err != nil {
				return aggCell{}, err
			}
			truth := cardest.True{Store: st}
			sp := l.spaceFor(q.ID, cfg.Idx, truth, plan.Bushy)
			opt, err := enum.DP(sp)
			if err != nil {
				return aggCell{}, err
			}
			rng := rand.New(rand.NewSource(l.W.Options.Seed ^ int64(qi+1)))
			var out aggCell
			best, worst := math.Inf(1), 0.0
			for i := 0; i < wlSamples; i++ {
				p, err := enum.QuickPick(sp, rng)
				if err != nil {
					return aggCell{}, err
				}
				rel := p.ECost / opt.ECost
				if rel <= 1.5 {
					out.within++
				}
				out.total++
				if p.ECost < best {
					best = p.ECost
				}
				if p.ECost > worst {
					worst = p.ECost
				}
			}
			out.ratio = worst / best
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		within, total := 0, 0
		ratios := make([]float64, len(perQuery))
		for i, c := range perQuery {
			within += c.within
			total += c.total
			ratios[i] = c.ratio
		}
		res.Frac15[cfg.Label] = float64(within) / float64(total)
		res.MeanWorstBest[cfg.Label] = metrics.Mean(ratios)
	}
	return res, nil
}

// Render formats Fig. 9 plus the §6.1 aggregates.
func (r *Figure9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: cost of %d random plans relative to the optimal PK+FK plan\n", r.Samples)
	fmt.Fprintf(&b, "%-6s %-18s %9s %9s %9s %9s %9s %10s\n",
		"query", "config", "min", "p5", "median", "p95", "max", "optimal")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "%-6s %-18s %9.3g %9.3g %9.3g %9.3g %9.3g %10.3g\n",
			p.Query, p.Config, p.Box.MinValue, p.Box.P5, p.Box.P50, p.Box.P95, p.Box.MaxValue, p.Optimal)
	}
	b.WriteString("\nSection 6.1 workload aggregates:\n")
	for _, cfg := range []string{"no indexes", "PK indexes", "PK + FK indexes"} {
		fmt.Fprintf(&b, "  %-18s %5.1f%% of random plans within 1.5x of optimal; mean worst/best ratio %.0fx\n",
			cfg, 100*r.Frac15[cfg], r.MeanWorstBest[cfg])
	}
	return b.String()
}

// Table2Result holds the restricted-tree-shape slowdowns.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one (shape, index config) aggregate.
type Table2Row struct {
	Shape            plan.Shape
	Config           string
	Median, P95, Max float64
}

// Table2 measures how much performance the tree-shape restrictions cost
// (true cardinalities, both index configurations), like the paper's Table 2.
func (l *Lab) Table2(ctx context.Context) (*Table2Result, error) {
	res := &Table2Result{}
	configs := l.indexConfigs()[1:] // PK, PK+FK
	for _, shape := range []plan.Shape{plan.ZigZag, plan.LeftDeep, plan.RightDeep} {
		for _, cfg := range configs {
			slowdowns, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (float64, error) {
				st, err := l.Truth(ctx, q.ID)
				if err != nil {
					return 0, err
				}
				truth := cardest.True{Store: st}
				bushy, err := enum.DP(l.spaceFor(q.ID, cfg.Idx, truth, plan.Bushy))
				if err != nil {
					return 0, err
				}
				restricted, err := enum.DP(l.spaceFor(q.ID, cfg.Idx, truth, shape))
				if err != nil {
					return 0, err
				}
				return restricted.ECost / bushy.ECost, nil
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Table2Row{
				Shape:  shape,
				Config: cfg.Label,
				Median: metrics.Median(slowdowns),
				P95:    metrics.Percentile(slowdowns, 95),
				Max:    metrics.Max(slowdowns),
			})
		}
	}
	return res, nil
}

// Render formats Table 2.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: slowdown of restricted tree shapes vs optimal bushy plan (true cardinalities)\n")
	fmt.Fprintf(&b, "%-12s %-18s %10s %10s %12s\n", "shape", "config", "median", "95%", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-18s %10.2f %10.2f %12.2f\n",
			row.Shape, row.Config, row.Median, row.P95, row.Max)
	}
	return b.String()
}

// Table3Result compares DP against the heuristics.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one (algorithm, provider, config) aggregate of true costs
// normalised by the configuration's optimal plan.
type Table3Row struct {
	Algorithm        string
	Cards            string
	Config           string
	Median, P95, Max float64
}

// Table3 reproduces the enumeration comparison: exhaustive DP vs
// QuickPick-1000 vs GOO, planning under PostgreSQL estimates and under true
// cardinalities, evaluated by re-costing every plan with the truth.
func (l *Lab) Table3(ctx context.Context) (*Table3Result, error) {
	res := &Table3Result{}
	algos := []optimizer.Algorithm{optimizer.DP, optimizer.QuickPick1000, optimizer.GOO}
	for _, cfg := range l.indexConfigs()[1:] { // PK, PK+FK
		for _, useTrue := range []bool{false, true} {
			cardsLabel := "PostgreSQL estimates"
			if useTrue {
				cardsLabel = "true cardinalities"
			}
			for _, alg := range algos {
				factors, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (float64, error) {
					g := l.Graphs[q.ID]
					st, err := l.Truth(ctx, q.ID)
					if err != nil {
						return 0, err
					}
					truth := cardest.True{Store: st}
					var prov cardest.Provider = truth
					if !useTrue {
						prov = l.Postgres.ForQuery(g)
					}
					opt := &optimizer.Optimizer{
						DB: l.DB, Model: costmodel.NewSimple(), Indexes: cfg.Idx,
						DisableNLJ: true, Algorithm: alg, Seed: l.W.Options.Seed,
					}
					p, err := opt.Optimize(g, prov)
					if err != nil {
						return 0, err
					}
					baseline, err := enum.DP(l.spaceFor(q.ID, cfg.Idx, truth, plan.Bushy))
					if err != nil {
						return 0, err
					}
					return plan.Cost(p, g, l.DB, truth, opt.Model) / baseline.ECost, nil
				})
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, Table3Row{
					Algorithm: alg.String(),
					Cards:     cardsLabel,
					Config:    cfg.Label,
					Median:    metrics.Median(factors),
					P95:       metrics.Percentile(factors, 95),
					Max:       metrics.Max(factors),
				})
			}
		}
	}
	return res, nil
}

// Render formats Table 3.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: true cost relative to the optimal plan of each index configuration\n")
	fmt.Fprintf(&b, "%-26s %-22s %-18s %8s %10s %12s\n",
		"algorithm", "cardinalities", "config", "median", "95%", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %-22s %-18s %8.2f %10.2f %12.2f\n",
			row.Algorithm, row.Cards, row.Config, row.Median, row.P95, row.Max)
	}
	return b.String()
}
