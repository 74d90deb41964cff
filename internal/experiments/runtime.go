package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/engine"
	"jobench/internal/index"
	"jobench/internal/metrics"
	"jobench/internal/optimizer"
	"jobench/internal/query"
)

// runnerPool recycles engine.Runners across the per-query cells of the
// runtime sweeps: a Runner's scratch buffers (emit vectors, row-id pool)
// grow to a sweep's working set once, instead of once per executed plan.
// A sync.Pool keeps the reuse worker-local under the parallel runner
// without tying cells to workers.
var runnerPool = sync.Pool{New: func() any { return engine.NewRunner() }}

// engineRules captures the engine/optimizer switches of §4.1.
type engineRules struct {
	DisableNLJ bool
	Rehash     bool
}

// timeoutFactor: executions are cut off at this multiple of the optimal
// plan's work, and counted in the >100 slowdown bucket like the paper's
// timeouts.
const timeoutFactor = 500

// runOne optimizes a query under the given provider and executes it,
// returning the slowdown relative to the true-cardinality plan's work.
func (l *Lab) runOne(ctx context.Context, qid string, prov cardest.Provider, idx *index.Set, rules engineRules, model costmodel.Model) (slowdown float64, timedOut bool, err error) {
	g := l.Graphs[qid]
	st, err := l.Truth(ctx, qid)
	if err != nil {
		return 0, false, err
	}
	truth := cardest.True{Store: st}
	opt := &optimizer.Optimizer{
		DB: l.DB, Model: model, Indexes: idx, DisableNLJ: rules.DisableNLJ,
	}
	optPlan, err := opt.Optimize(g, truth)
	if err != nil {
		return 0, false, err
	}
	runner := runnerPool.Get().(*engine.Runner)
	defer runnerPool.Put(runner)
	baseRes, err := runner.Run(l.DB, idx, g, optPlan, engine.Config{Rehash: rules.Rehash})
	if err != nil {
		return 0, false, fmt.Errorf("%s baseline: %w", qid, err)
	}
	baseWork := baseRes.Work
	if baseWork == 0 {
		baseWork = 1
	}

	estPlan, err := opt.Optimize(g, prov)
	if err != nil {
		return 0, false, err
	}
	res, err := runner.Run(l.DB, idx, g, estPlan, engine.Config{
		Rehash:    rules.Rehash,
		WorkLimit: timeoutFactor * baseWork,
	})
	if err != nil {
		if errors.Is(err, engine.ErrWorkLimit) {
			return timeoutFactor, true, nil
		}
		return 0, false, err
	}
	if res.Rows != baseRes.Rows {
		return 0, false, fmt.Errorf("%s: estimate plan returned %d rows, baseline %d", qid, res.Rows, baseRes.Rows)
	}
	return float64(res.Work) / float64(baseWork), false, nil
}

// Section41Result is the §4.1 table: slowdown distribution per estimator.
type Section41Result struct {
	Rows []Section41Row
}

// Section41Row is one estimator's slowdown bucket distribution.
type Section41Row struct {
	System   string
	Buckets  []float64 // fractions in the six paper buckets
	Timeouts int
}

// Section41 injects each system's estimates into the optimizer and executes
// the resulting plans (PK indexes, nested-loop joins disabled, rehashing
// on — the paper's robust configuration for this table).
func (l *Lab) Section41(ctx context.Context) (*Section41Result, error) {
	rules := engineRules{DisableNLJ: true, Rehash: true}
	// The engine is a main-memory executor, so the faithful optimizer for
	// the runtime experiments is the main-memory-tuned model (§5.3); the
	// disk-oriented default would bias both plans against index joins.
	model := costmodel.NewTuned()
	res := &Section41Result{}
	for _, est := range l.Systems() {
		slowdowns, timeouts, err := l.runWorkload(ctx, func(q *query.Query) cardest.Provider {
			return est.ForQuery(l.Graphs[q.ID])
		}, l.IdxPK, rules, model)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Section41Row{
			System:   est.Name(),
			Buckets:  metrics.BucketSlowdowns(slowdowns),
			Timeouts: timeouts,
		})
	}
	return res, nil
}

// runWorkload executes every workload query with runOne in parallel,
// returning the slowdowns in workload order plus the timeout count. It is
// the shared sweep of §4.1, Fig. 6, Fig. 7 and the hedging extension.
func (l *Lab) runWorkload(ctx context.Context, provFor func(q *query.Query) cardest.Provider, idx *index.Set, rules engineRules, model costmodel.Model) ([]float64, int, error) {
	type cellResult struct {
		slowdown float64
		timedOut bool
	}
	perQuery, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (cellResult, error) {
		s, timedOut, err := l.runOne(ctx, q.ID, provFor(q), idx, rules, model)
		return cellResult{s, timedOut}, err
	})
	if err != nil {
		return nil, 0, err
	}
	slowdowns := make([]float64, len(perQuery))
	timeouts := 0
	for i, r := range perQuery {
		slowdowns[i] = r.slowdown
		if r.timedOut {
			timeouts++
		}
	}
	return slowdowns, timeouts, nil
}

// Render formats the §4.1 table.
func (r *Section41Result) Render() string {
	var b strings.Builder
	b.WriteString("Section 4.1: slowdown vs true-cardinality plan (PK indexes, no NLJ, rehash on)\n")
	fmt.Fprintf(&b, "%-12s", "")
	for _, lbl := range metrics.BucketLabels() {
		fmt.Fprintf(&b, "%11s", lbl)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s", row.System)
		for _, f := range row.Buckets {
			fmt.Fprintf(&b, "%10.1f%%", 100*f)
		}
		if row.Timeouts > 0 {
			fmt.Fprintf(&b, "  (%d timeouts)", row.Timeouts)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure6Result holds the three engine-hardening steps of Fig. 6.
type Figure6Result struct {
	Variants []Figure6Variant
}

// Figure6Variant is one subplot: a slowdown histogram.
type Figure6Variant struct {
	Label    string
	Buckets  []float64
	Timeouts int
}

// Figure6 reproduces the risky-plan experiment: PostgreSQL estimates with
// PK indexes under (a) the default engine, (b) nested-loop joins disabled,
// (c) additionally runtime-resized hash tables.
func (l *Lab) Figure6(ctx context.Context) (*Figure6Result, error) {
	model := costmodel.NewTuned()
	variants := []struct {
		label string
		rules engineRules
	}{
		{"(a) default", engineRules{DisableNLJ: false, Rehash: false}},
		{"(b) + no nested-loop join", engineRules{DisableNLJ: true, Rehash: false}},
		{"(c) + rehashing", engineRules{DisableNLJ: true, Rehash: true}},
	}
	res := &Figure6Result{}
	for _, v := range variants {
		slowdowns, timeouts, err := l.runWorkload(ctx, func(q *query.Query) cardest.Provider {
			return l.Postgres.ForQuery(l.Graphs[q.ID])
		}, l.IdxPK, v.rules, model)
		if err != nil {
			return nil, err
		}
		res.Variants = append(res.Variants, Figure6Variant{
			Label: v.label, Buckets: metrics.BucketSlowdowns(slowdowns), Timeouts: timeouts,
		})
	}
	return res, nil
}

// Render formats Fig. 6.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: slowdown with PostgreSQL estimates (PK indexes)\n")
	renderBucketRows(&b, r.Variants)
	return b.String()
}

func renderBucketRows(b *strings.Builder, vs []Figure6Variant) {
	fmt.Fprintf(b, "%-28s", "")
	for _, lbl := range metrics.BucketLabels() {
		fmt.Fprintf(b, "%11s", lbl)
	}
	b.WriteString("\n")
	for _, v := range vs {
		fmt.Fprintf(b, "%-28s", v.Label)
		for _, f := range v.Buckets {
			fmt.Fprintf(b, "%10.1f%%", 100*f)
		}
		if v.Timeouts > 0 {
			fmt.Fprintf(b, "  (%d timeouts)", v.Timeouts)
		}
		b.WriteString("\n")
	}
}

// Figure7 compares PK-only against PK+FK indexes (robust engine settings):
// richer physical designs make the optimizer's job harder.
func (l *Lab) Figure7(ctx context.Context) (*Figure6Result, error) {
	model := costmodel.NewTuned()
	rules := engineRules{DisableNLJ: true, Rehash: true}
	res := &Figure6Result{}
	for _, v := range []struct {
		label string
		idx   *index.Set
	}{
		{"(a) PK indexes", l.IdxPK},
		{"(b) PK + FK indexes", l.IdxPKFK},
	} {
		slowdowns, timeouts, err := l.runWorkload(ctx, func(q *query.Query) cardest.Provider {
			return l.Postgres.ForQuery(l.Graphs[q.ID])
		}, v.idx, rules, model)
		if err != nil {
			return nil, err
		}
		res.Variants = append(res.Variants, Figure6Variant{
			Label: v.label, Buckets: metrics.BucketSlowdowns(slowdowns), Timeouts: timeouts,
		})
	}
	return res, nil
}

// Figure8Result holds the cost/runtime correlation of the three cost models
// under estimated and true cardinalities.
type Figure8Result struct {
	Panels []Figure8Panel
	// GeoMeanRuntime (workload geometric mean, work units) of the plans
	// each model picks under TRUE cardinalities — the §5.4 comparison
	// (tuned 41% and simple 34% faster than standard in the paper).
	GeoMeanRuntime map[string]float64
}

// Figure8Panel is one subplot: points and the regression summary.
type Figure8Panel struct {
	Model     string
	TrueCards bool
	Cost      []float64
	Runtime   []float64
	Fit       metrics.Regression
}

// Figure8 optimizes and executes every query under {3 cost models} x
// {PostgreSQL estimates, true cardinalities} with PK+FK indexes, recording
// predicted cost vs measured runtime (work units).
func (l *Lab) Figure8(ctx context.Context) (*Figure8Result, error) {
	models := []costmodel.Model{costmodel.NewPostgres(), costmodel.NewTuned(), costmodel.NewSimple()}
	res := &Figure8Result{GeoMeanRuntime: make(map[string]float64)}
	rules := engineRules{DisableNLJ: true, Rehash: true}
	for _, m := range models {
		for _, useTrue := range []bool{false, true} {
			type cellResult struct {
				cost, work float64
			}
			perQuery, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (cellResult, error) {
				g := l.Graphs[q.ID]
				st, err := l.Truth(ctx, q.ID)
				if err != nil {
					return cellResult{}, err
				}
				var prov cardest.Provider = cardest.True{Store: st}
				if !useTrue {
					prov = l.Postgres.ForQuery(g)
				}
				opt := &optimizer.Optimizer{DB: l.DB, Model: m, Indexes: l.IdxPKFK, DisableNLJ: rules.DisableNLJ}
				p, err := opt.Optimize(g, prov)
				if err != nil {
					return cellResult{}, err
				}
				runner := runnerPool.Get().(*engine.Runner)
				defer runnerPool.Put(runner)
				r, err := runner.Run(l.DB, l.IdxPKFK, g, p, engine.Config{Rehash: rules.Rehash})
				if err != nil {
					return cellResult{}, err
				}
				return cellResult{cost: p.ECost, work: float64(r.Work)}, nil
			})
			if err != nil {
				return nil, err
			}
			panel := Figure8Panel{Model: m.Name(), TrueCards: useTrue}
			var runtimes []float64
			for _, c := range perQuery {
				panel.Cost = append(panel.Cost, c.cost)
				panel.Runtime = append(panel.Runtime, c.work)
				runtimes = append(runtimes, math.Max(1, c.work))
			}
			panel.Fit = metrics.FitRegression(panel.Cost, panel.Runtime)
			res.Panels = append(res.Panels, panel)
			if useTrue {
				res.GeoMeanRuntime[m.Name()] = metrics.GeoMean(runtimes)
			}
		}
	}
	return res, nil
}

// Render formats Fig. 8.
func (r *Figure8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: predicted cost vs measured runtime (PK+FK indexes)\n")
	fmt.Fprintf(&b, "%-18s %-16s %9s %9s %12s\n", "cost model", "cardinalities", "pearson", "R^2", "med |err| %")
	for _, p := range r.Panels {
		cards := "PostgreSQL"
		if p.TrueCards {
			cards = "true"
		}
		fmt.Fprintf(&b, "%-18s %-16s %9.3f %9.3f %11.0f%%\n",
			p.Model, cards, p.Fit.Pearson, p.Fit.R2, 100*p.Fit.MedianAbsPctErr)
	}
	b.WriteString("\nGeometric-mean runtime of plans chosen under true cardinalities (work units):\n")
	for _, name := range sortedKeys(r.GeoMeanRuntime) {
		fmt.Fprintf(&b, "  %-18s %12.0f\n", name, r.GeoMeanRuntime[name])
	}
	return b.String()
}
