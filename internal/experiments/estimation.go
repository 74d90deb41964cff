package experiments

import (
	"context"
	"fmt"
	"strings"

	"jobench/internal/cardest"
	"jobench/internal/metrics"
	"jobench/internal/parallel"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/truecard"
	"jobench/internal/world"
)

// maxFigure3Joins is the deepest subexpression size the estimation-quality
// experiments measure (the paper's Fig. 3 x-axis runs from 0 to 6 joins).
const maxFigure3Joins = 6

// Table1Result holds the q-error percentiles for base-table selections.
type Table1Result struct {
	Selections int
	Rows       []Table1Row
}

// Table1Row is one system's row of Table 1.
type Table1Row struct {
	System                    string
	Median, P90, P95, Maximum float64
}

// Table1 measures base-table selection q-errors for all five systems
// (paper Table 1).
func (l *Lab) Table1(ctx context.Context) (*Table1Result, error) {
	res := &Table1Result{}
	for _, q := range l.Queries {
		for _, r := range q.Rels {
			if len(r.Preds) > 0 {
				res.Selections++
			}
		}
	}
	for _, est := range l.Systems() {
		// One cell per query: q-errors of every predicated base table.
		perQuery, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) ([]float64, error) {
			st, err := l.Truth(ctx, q.ID)
			if err != nil {
				return nil, err
			}
			prov := est.ForQuery(l.Graphs[q.ID])
			var qerrs []float64
			for i, r := range q.Rels {
				if len(r.Preds) == 0 {
					continue
				}
				truth, _ := st.Card(query.Bit(i))
				qerrs = append(qerrs, metrics.QError(prov.Card(query.Bit(i)), truth))
			}
			return qerrs, nil
		})
		if err != nil {
			return nil, err
		}
		var qerrs []float64
		for _, qs := range perQuery {
			qerrs = append(qerrs, qs...)
		}
		res.Rows = append(res.Rows, Table1Row{
			System:  est.Name(),
			Median:  metrics.Median(qerrs),
			P90:     metrics.Percentile(qerrs, 90),
			P95:     metrics.Percentile(qerrs, 95),
			Maximum: metrics.Max(qerrs),
		})
	}
	return res, nil
}

// Render formats Table 1 like the paper.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: q-errors for %d base table selections\n", r.Selections)
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s\n", "", "median", "90th", "95th", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %8.2f %8.1f %8.1f %8.0f\n",
			row.System, row.Median, row.P90, row.P95, row.Maximum)
	}
	return b.String()
}

// Figure3Result holds, per system and per join count, the boxplot of signed
// estimation errors, plus the §3.2 "off by >10x" percentages.
type Figure3Result struct {
	Systems []Figure3System
}

// Figure3System is one panel of Fig. 3.
type Figure3System struct {
	System string
	// ByJoins[k] summarises the signed errors (est/true; <1 means
	// underestimation) of all subexpressions with k joins.
	ByJoins []metrics.Boxplot
	// FracOffBy10[k] is the fraction of estimates at k joins wrong by a
	// factor >= 10 in either direction.
	FracOffBy10 []float64
}

// Figure3 computes the join estimation error distributions of Fig. 3.
func (l *Lab) Figure3(ctx context.Context) (*Figure3Result, error) {
	errs, err := l.errorSweep(ctx, l.Systems()...)
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{}
	for i, est := range l.Systems() {
		sys := Figure3System{System: est.Name()}
		for _, xs := range errs[i] {
			sys.ByJoins = append(sys.ByJoins, metrics.NewBoxplot(xs))
			sys.FracOffBy10 = append(sys.FracOffBy10, fracOffBy10(xs))
		}
		res.Systems = append(res.Systems, sys)
	}
	return res, nil
}

// joinErrors is the §3 measurement on one query: for each provider, the
// signed error (est/true) of every connected subexpression of g with at
// most maxFigure3Joins joins, bucketed by join count — errs[i][nj].
func joinErrors(g *query.Graph, st *truecard.Store, provs ...cardest.Provider) [][][]float64 {
	errs := make([][][]float64, len(provs))
	for i := range errs {
		errs[i] = make([][]float64, maxFigure3Joins+1)
	}
	g.ConnectedSubsets(func(s query.BitSet) {
		nj := g.EdgesWithin(s).Count()
		if nj > maxFigure3Joins {
			return
		}
		truth, ok := st.Card(s)
		if !ok {
			return
		}
		for i, p := range provs {
			errs[i][nj] = append(errs[i][nj], metrics.SignedError(p.Card(s), truth))
		}
	})
	return errs
}

// errorSweep runs joinErrors for every estimator over every query of the
// workload and merges the buckets in query order: errs[i][nj] holds
// estimator i's signed errors at nj joins.
func (l *Lab) errorSweep(ctx context.Context, ests ...cardest.Estimator) ([][][]float64, error) {
	perQuery, err := runQueries(ctx, l, func(ctx context.Context, _ int, q *query.Query) ([][][]float64, error) {
		g := l.Graphs[q.ID]
		st, err := l.Truth(ctx, q.ID)
		if err != nil {
			return nil, err
		}
		provs := make([]cardest.Provider, len(ests))
		for i, est := range ests {
			provs[i] = est.ForQuery(g)
		}
		return joinErrors(g, st, provs...), nil
	})
	if err != nil {
		return nil, err
	}
	errs := make([][][]float64, len(ests))
	for i := range errs {
		errs[i] = make([][]float64, maxFigure3Joins+1)
		for _, q := range perQuery {
			for nj, xs := range q[i] {
				errs[i][nj] = append(errs[i][nj], xs...)
			}
		}
	}
	return errs, nil
}

// fracOffBy10 is the share of signed errors off by a factor of at least 10
// in either direction (0 when there are none).
func fracOffBy10(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	off := 0
	for _, x := range xs {
		if x >= 10 || x <= 0.1 {
			off++
		}
	}
	return float64(off) / float64(len(xs))
}

// Render formats the Fig. 3 panels as text boxplots.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: signed estimation error (est/true) by number of joins\n")
	for _, sys := range r.Systems {
		fmt.Fprintf(&b, "\n%s\n", sys.System)
		fmt.Fprintf(&b, "%6s %9s %9s %9s %9s %9s %7s %7s\n",
			"joins", "p5", "p25", "median", "p75", "p95", "n", ">10x")
		for nj, box := range sys.ByJoins {
			if box.N == 0 {
				continue
			}
			fmt.Fprintf(&b, "%6d %9.3g %9.3g %9.3g %9.3g %9.3g %7d %6.0f%%\n",
				nj, box.P5, box.P25, box.P50, box.P75, box.P95, box.N, 100*sys.FracOffBy10[nj])
		}
	}
	return b.String()
}

// Figure4Result compares PostgreSQL estimation errors on individual JOB
// queries against TPC-H queries.
type Figure4Result struct {
	Panels []Figure4Panel
}

// Figure4Panel is one per-query boxplot column group.
type Figure4Panel struct {
	Query   string
	ByJoins []metrics.Boxplot
}

// Figure4 runs the PostgreSQL estimator over 4 JOB queries and the 3 mini
// TPC-H queries (generated uniform and independent), reproducing the
// contrast of Fig. 4: TPC-H is easy, JOB is not.
func (l *Lab) Figure4(ctx context.Context) (*Figure4Result, error) {
	// One panel per query: PostgreSQL's estimates against a world's truth.
	panels := func(w *world.World, pg cardest.Estimator, label string, qids []string) ([]Figure4Panel, error) {
		return parallel.RunCells(ctx, l.W.Options.Parallel, qids,
			func(ctx context.Context, qid string) (Figure4Panel, error) {
				g := w.Graphs[qid]
				st, err := w.Truth(ctx, g)
				if err != nil {
					return Figure4Panel{}, err
				}
				return figure4Panel(label+strings.TrimPrefix(qid, "tpch"), g, pg.ForQuery(g), st), nil
			})
	}
	var jobIDs []string
	for _, qid := range []string{"6a", "16d", "17b", "25c"} {
		if _, ok := l.Graphs[qid]; ok {
			jobIDs = append(jobIDs, qid)
		}
	}
	jobPanels, err := panels(l.W, l.Postgres, "JOB ", jobIDs)
	if err != nil {
		return nil, err
	}
	// The TPC-H side is the registry's tpch world at the lab's seed, scale
	// and cache dir, analyzed with PostgreSQL's defaults — the statistics a
	// System over that world reads, so both share one ANALYZE.
	topts := l.W.Options
	topts.Workload = "tpch"
	tw, err := world.Open(topts)
	if err != nil {
		return nil, err
	}
	tpg := cardest.NewPostgres(tw.DB, tw.Stats(stats.DefaultOptions(tw.Key.Seed)))
	tpchPanels, err := panels(tw, tpg, "TPC-H ", []string{"tpch5", "tpch8", "tpch10"})
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Panels: append(jobPanels, tpchPanels...)}, nil
}

func figure4Panel(label string, g *query.Graph, prov cardest.Provider, st *truecard.Store) Figure4Panel {
	p := Figure4Panel{Query: label}
	for _, xs := range joinErrors(g, st, prov)[0] {
		p.ByJoins = append(p.ByJoins, metrics.NewBoxplot(xs))
	}
	return p
}

// MaxQError returns the worst q-error over all subexpressions of a panel.
func (p Figure4Panel) MaxQError() float64 {
	worst := 1.0
	for _, box := range p.ByJoins {
		if box.N == 0 {
			continue
		}
		for _, v := range []float64{box.MinValue, box.MaxValue} {
			q := v
			if q < 1 {
				q = 1 / q
			}
			if q > worst {
				worst = q
			}
		}
	}
	return worst
}

// Render formats Fig. 4.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: PostgreSQL estimation errors, JOB vs TPC-H (est/true)\n")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "\n%s (worst q-error %.1f)\n", p.Query, p.MaxQError())
		fmt.Fprintf(&b, "%6s %9s %9s %9s %7s\n", "joins", "p5", "median", "p95", "n")
		for nj, box := range p.ByJoins {
			if box.N == 0 {
				continue
			}
			fmt.Fprintf(&b, "%6d %9.3g %9.3g %9.3g %7d\n", nj, box.P5, box.P50, box.P95, box.N)
		}
	}
	return b.String()
}

// Figure5Result contrasts PostgreSQL with estimated vs true distinct counts.
type Figure5Result struct {
	Default      []metrics.Boxplot // by join count
	TrueDistinct []metrics.Boxplot
}

// Figure5 reproduces the paper's §3.4 experiment: replacing the sampled
// distinct counts with exact ones changes the estimates — and makes the
// underestimation trend *worse*, the "two wrongs make a right" effect.
func (l *Lab) Figure5(ctx context.Context) (*Figure5Result, error) {
	errs, err := l.errorSweep(ctx, l.Postgres, l.PostgresTD)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{}
	for nj := range errs[0] {
		res.Default = append(res.Default, metrics.NewBoxplot(errs[0][nj]))
		res.TrueDistinct = append(res.TrueDistinct, metrics.NewBoxplot(errs[1][nj]))
	}
	return res, nil
}

// Render formats Fig. 5.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: PostgreSQL estimates with default vs true distinct counts (est/true medians)\n")
	fmt.Fprintf(&b, "%6s %16s %16s\n", "joins", "default", "true distinct")
	for nj := range r.Default {
		if r.Default[nj].N == 0 {
			continue
		}
		fmt.Fprintf(&b, "%6d %16.3g %16.3g\n", nj, r.Default[nj].P50, r.TrueDistinct[nj].P50)
	}
	return b.String()
}
