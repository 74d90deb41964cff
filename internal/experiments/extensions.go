package experiments

import (
	"context"
	"fmt"
	"strings"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/engine"
	"jobench/internal/enum"
	"jobench/internal/metrics"
	"jobench/internal/plan"
	"jobench/internal/query"
)

// This file holds the extension studies beyond the paper's figures (see
// DESIGN.md §5): a damping-exponent ablation for the DBMS A profile, a
// hash-table rehashing ablation across underestimation factors, and an
// evaluation of the risk-hedging ("pessimistic") plan selection the paper
// proposes as future work in §8.

// DampingAblationResult sweeps the damping exponent of the DBMS A profile.
type DampingAblationResult struct {
	Rows []DampingAblationRow
}

// DampingAblationRow reports per-exponent medians of the signed error at
// selected join depths, plus the fraction off by more than 10x.
type DampingAblationRow struct {
	Exponent    float64
	MedianAt    map[int]float64
	FracOffBy10 float64
}

// DampingAblation explains the DBMS A reverse-engineering: exponent 1.0 is
// plain independence (systematic underestimation), small exponents
// overshoot into overestimation, and the profile's default sits in between.
func (l *Lab) DampingAblation(ctx context.Context, exponents []float64) (*DampingAblationResult, error) {
	if len(exponents) == 0 {
		exponents = []float64{1.0, 0.9, 0.82, 0.7, 0.5}
	}
	res := &DampingAblationResult{}
	for _, exp := range exponents {
		est := cardest.NewDamped(l.DB, l.Stats, exp)
		type cellResult struct {
			byJoins    map[int][]float64
			off, total int
		}
		perQuery, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (cellResult, error) {
			g := l.Graphs[q.ID]
			st, err := l.Truth(ctx, q.ID)
			if err != nil {
				return cellResult{}, err
			}
			prov := est.ForQuery(g)
			out := cellResult{byJoins: make(map[int][]float64)}
			g.ConnectedSubsets(func(s query.BitSet) {
				nj := g.EdgesWithin(s).Count()
				if nj == 0 || nj > maxFigure3Joins {
					return
				}
				truth, ok := st.Card(s)
				if !ok {
					return
				}
				e := metrics.SignedError(prov.Card(s), truth)
				out.byJoins[nj] = append(out.byJoins[nj], e)
				out.total++
				if e >= 10 || e <= 0.1 {
					out.off++
				}
			})
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		byJoins := make(map[int][]float64)
		off, total := 0, 0
		for _, c := range perQuery {
			for nj, es := range c.byJoins {
				byJoins[nj] = append(byJoins[nj], es...)
			}
			off += c.off
			total += c.total
		}
		row := DampingAblationRow{Exponent: exp, MedianAt: make(map[int]float64)}
		for _, nj := range []int{2, 4, 6} {
			row.MedianAt[nj] = metrics.Median(byJoins[nj])
		}
		if total > 0 {
			row.FracOffBy10 = float64(off) / float64(total)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the damping ablation.
func (r *DampingAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: DBMS A damping exponent (median est/true by join count)\n")
	fmt.Fprintf(&b, "%10s %12s %12s %12s %10s\n", "exponent", "2 joins", "4 joins", "6 joins", ">10x off")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.2f %12.3g %12.3g %12.3g %9.0f%%\n",
			row.Exponent, row.MedianAt[2], row.MedianAt[4], row.MedianAt[6], 100*row.FracOffBy10)
	}
	return b.String()
}

// RehashAblationResult measures hash-join work as a function of how badly
// the build side was underestimated, with and without runtime rehashing.
type RehashAblationResult struct {
	Rows []RehashAblationRow
}

// RehashAblationRow is one underestimation factor.
type RehashAblationRow struct {
	UnderestimationFactor float64
	WorkFixed             int64
	WorkRehash            int64
}

// RehashAblation isolates the §4.1 hash-table mechanism on one query: the
// plan is fixed; only the build-side estimates fed to the executor change.
func (l *Lab) RehashAblation(ctx context.Context, qid string, factors []float64) (*RehashAblationResult, error) {
	if len(factors) == 0 {
		factors = []float64{1, 10, 100, 1000}
	}
	g := l.Graphs[qid]
	if g == nil {
		return nil, fmt.Errorf("experiments: unknown query %s", qid)
	}
	st, err := l.Truth(ctx, qid)
	if err != nil {
		return nil, err
	}
	truth := cardest.True{Store: st}
	sp := &enum.Space{
		G: g, DB: l.DB, Cards: truth, Model: costmodel.NewSimple(),
		Indexes: l.IdxPK, DisableNLJ: true,
	}
	optimal, err := enum.DP(sp)
	if err != nil {
		return nil, err
	}
	// Force hash joins so every join exercises the mechanism.
	var force func(n *plan.Node)
	force = func(n *plan.Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		n.Algo = plan.HashJoin
		force(n.Left)
		force(n.Right)
	}
	force(optimal)

	res := &RehashAblationResult{}
	for _, f := range factors {
		var scale func(n *plan.Node)
		scale = func(n *plan.Node) {
			if n == nil {
				return
			}
			n.ECard = truth.Card(n.S) / f
			if n.ECard < 1 {
				n.ECard = 1
			}
			scale(n.Left)
			scale(n.Right)
		}
		scale(optimal)
		fixed, err := engine.Run(l.DB, l.IdxPK, g, optimal, engine.Config{Rehash: false})
		if err != nil {
			return nil, err
		}
		rehash, err := engine.Run(l.DB, l.IdxPK, g, optimal, engine.Config{Rehash: true})
		if err != nil {
			return nil, err
		}
		if fixed.Rows != rehash.Rows {
			return nil, fmt.Errorf("rehash changed result: %d vs %d", fixed.Rows, rehash.Rows)
		}
		res.Rows = append(res.Rows, RehashAblationRow{
			UnderestimationFactor: f,
			WorkFixed:             fixed.Work,
			WorkRehash:            rehash.Work,
		})
	}
	return res, nil
}

// Render formats the rehash ablation.
func (r *RehashAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: hash-join work vs build-side underestimation (fixed plan)\n")
	fmt.Fprintf(&b, "%14s %14s %14s %10s\n", "underest.", "fixed table", "with rehash", "penalty")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%13.0fx %14d %14d %9.1fx\n",
			row.UnderestimationFactor, row.WorkFixed, row.WorkRehash,
			float64(row.WorkFixed)/float64(row.WorkRehash))
	}
	return b.String()
}

// HedgingResult evaluates pessimistic (risk-hedging) plan selection.
type HedgingResult struct {
	Rows []HedgingRow
}

// HedgingRow compares one configuration on the §4.1 harness.
type HedgingRow struct {
	Label    string
	Buckets  []float64
	Timeouts int
}

// Hedging runs the §4.1 experiment (PK+FK indexes, where misestimates hurt
// most) with plain PostgreSQL estimates and with the same estimates
// inflated by several per-join risk factors — the paper's §8 suggestion of
// not trusting the cheapest expected plan. The sweep doubles as an
// ablation: gentle hedging tends to remove disasters, while aggressive
// inflation distorts join-order choices and can backfire.
func (l *Lab) Hedging(ctx context.Context, factors ...float64) (*HedgingResult, error) {
	if len(factors) == 0 {
		factors = []float64{1.1, 1.5, 2.0}
	}
	model := costmodel.NewTuned()
	rules := engineRules{DisableNLJ: true, Rehash: true}
	res := &HedgingResult{}
	run := func(label string, factor float64) error {
		slowdowns, timeouts, err := l.runWorkload(ctx, func(q *query.Query) cardest.Provider {
			g := l.Graphs[q.ID]
			var prov cardest.Provider = l.Postgres.ForQuery(g)
			if factor > 0 {
				prov = &cardest.Pessimistic{Base: prov, G: g, Factor: factor}
			}
			return prov
		}, l.IdxPKFK, rules, model)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, HedgingRow{
			Label: label, Buckets: metrics.BucketSlowdowns(slowdowns), Timeouts: timeouts,
		})
		return nil
	}
	if err := run("PostgreSQL estimates", 0); err != nil {
		return nil, err
	}
	for _, f := range factors {
		if err := run(fmt.Sprintf("pessimistic (%.1fx per join)", f), f); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render formats the hedging comparison.
func (r *HedgingResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension (§8): risk-hedging plan selection, PK+FK indexes\n")
	fmt.Fprintf(&b, "%-30s", "")
	for _, lbl := range metrics.BucketLabels() {
		fmt.Fprintf(&b, "%11s", lbl)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-30s", row.Label)
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
