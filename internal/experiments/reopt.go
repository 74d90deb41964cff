package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/engine"
	"jobench/internal/metrics"
	"jobench/internal/optimizer"
	"jobench/internal/query"
	"jobench/internal/reopt"
)

// ReoptResult compares two planning regimes on every JOB query, both in
// work units relative to the true-cardinality plan: static (PostgreSQL
// estimates, the paper's baseline) and re-optimized (adaptive execution
// with probe work charged unless the probed intermediate survives into the
// final plan).
type ReoptResult struct {
	// Families aggregates per query family in workload order.
	Families []ReoptFamily
	// GeoStatic and GeoAdaptive are workload geometric-mean slowdowns.
	GeoStatic   float64
	GeoAdaptive float64
	// Replans and Probes total over the workload.
	Replans int
	Probes  int
	// TimeoutsStatic and TimeoutsAdaptive count executions cut off at
	// timeoutFactor x the optimal plan's work.
	TimeoutsStatic   int
	TimeoutsAdaptive int
	// Improved counts families whose geometric mean the re-optimizer beat.
	Improved int
}

// ReoptFamily is one JOB query family's aggregate.
type ReoptFamily struct {
	// Family is the numeric family prefix of the query ids ("13" for
	// 13a-13d).
	Family string
	// Queries is the family size.
	Queries int
	// GeoStatic and GeoAdaptive are family geometric-mean slowdowns.
	GeoStatic   float64
	GeoAdaptive float64
	// Replans totals the family's re-optimizations.
	Replans int
}

type reoptCell struct {
	family               string
	static, adaptive     float64
	replans, probes      int
	toStatic, toAdaptive bool
}

// Reopt runs the adaptive re-optimization experiment; see ReoptResult.
func (l *Lab) Reopt(ctx context.Context) (*ReoptResult, error) {
	// The robust runtime configuration of §4.1: main-memory-tuned cost
	// model, PK indexes, no non-indexed nested loops, runtime rehashing.
	model := costmodel.NewTuned()
	rules := engineRules{DisableNLJ: true, Rehash: true}
	idx := l.IdxPK
	perQuery, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (reoptCell, error) {
		g := l.Graphs[q.ID]
		st, err := l.Truth(ctx, q.ID)
		if err != nil {
			return reoptCell{}, err
		}
		truth := cardest.True{Store: st}
		opt := &optimizer.Optimizer{DB: l.DB, Model: model, Indexes: idx, DisableNLJ: rules.DisableNLJ}
		basePlan, err := opt.Optimize(g, truth)
		if err != nil {
			return reoptCell{}, err
		}
		baseRes, err := engine.Run(l.DB, idx, g, basePlan, engine.Config{Rehash: rules.Rehash})
		if err != nil {
			return reoptCell{}, fmt.Errorf("%s baseline: %w", q.ID, err)
		}
		baseWork := baseRes.Work
		if baseWork == 0 {
			baseWork = 1
		}
		limit := int64(timeoutFactor) * baseWork
		prov := l.Postgres.ForQuery(g)
		cell := reoptCell{family: familyOf(q.ID)}

		// Static: the paper's baseline — plan once on estimates, run to the
		// timeout.
		staticPlan, err := opt.Optimize(g, prov)
		if err != nil {
			return reoptCell{}, err
		}
		staticRes, err := engine.Run(l.DB, idx, g, staticPlan, engine.Config{Rehash: rules.Rehash, WorkLimit: limit})
		switch {
		case err != nil && errors.Is(err, engine.ErrWorkLimit):
			cell.static, cell.toStatic = timeoutFactor, true
		case err != nil:
			return reoptCell{}, fmt.Errorf("%s static: %w", q.ID, err)
		default:
			cell.static = slowdownOf(staticRes.Work, baseWork)
		}

		// Re-optimized: adaptive execution from a cold start. The adaptive
		// work accounting (final plan + non-reused probes) maps onto the
		// same timeout rule: past the limit it counts exactly like a static
		// timeout.
		rres, err := reopt.Run(ctx, g, prov, reopt.Config{
			DB: l.DB, Indexes: idx, Model: model,
			DisableNLJ: rules.DisableNLJ, Rehash: rules.Rehash,
			WorkLimit: limit,
		})
		if err != nil {
			return reoptCell{}, fmt.Errorf("%s adaptive: %w", q.ID, err)
		}
		cell.replans, cell.probes = rres.Replans, len(rres.Steps)
		if rres.TimedOut || rres.Work >= limit {
			cell.adaptive, cell.toAdaptive = timeoutFactor, true
		} else {
			if rres.Rows != baseRes.Rows {
				return reoptCell{}, fmt.Errorf("%s adaptive: returned %d rows, baseline %d", q.ID, rres.Rows, baseRes.Rows)
			}
			cell.adaptive = slowdownOf(rres.Work, baseWork)
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ReoptResult{}
	var statics, adaptives []float64
	type famAgg struct {
		statics, adaptives []float64
		replans            int
	}
	fams := make(map[string]*famAgg)
	var famOrder []string
	for _, c := range perQuery {
		statics = append(statics, c.static)
		adaptives = append(adaptives, c.adaptive)
		res.Replans += c.replans
		res.Probes += c.probes
		if c.toStatic {
			res.TimeoutsStatic++
		}
		if c.toAdaptive {
			res.TimeoutsAdaptive++
		}
		f := fams[c.family]
		if f == nil {
			f = &famAgg{}
			fams[c.family] = f
			famOrder = append(famOrder, c.family)
		}
		f.statics = append(f.statics, c.static)
		f.adaptives = append(f.adaptives, c.adaptive)
		f.replans += c.replans
	}
	res.GeoStatic = metrics.GeoMean(statics)
	res.GeoAdaptive = metrics.GeoMean(adaptives)
	for _, name := range famOrder {
		f := fams[name]
		fam := ReoptFamily{
			Family:      name,
			Queries:     len(f.statics),
			GeoStatic:   metrics.GeoMean(f.statics),
			GeoAdaptive: metrics.GeoMean(f.adaptives),
			Replans:     f.replans,
		}
		if fam.GeoAdaptive < fam.GeoStatic {
			res.Improved++
		}
		res.Families = append(res.Families, fam)
	}
	return res, nil
}

// slowdownOf clamps work into [1, ...) before dividing so zero-work plans
// cannot produce zero slowdowns (GeoMean needs positive inputs).
func slowdownOf(work, base int64) float64 {
	return math.Max(1, float64(work)) / float64(base)
}

// familyOf extracts the numeric family prefix of a JOB query id ("13d" ->
// "13").
func familyOf(id string) string {
	i := 0
	for i < len(id) && id[i] >= '0' && id[i] <= '9' {
		i++
	}
	return id[:i]
}

// Render formats the reopt report.
func (r *ReoptResult) Render() string {
	var b strings.Builder
	b.WriteString("Adaptive re-optimization: work-unit slowdown vs true-cardinality plan\n")
	b.WriteString("(PostgreSQL estimates, PK indexes, no NLJ, rehash on; probe work charged unless the intermediate is reused)\n\n")
	fmt.Fprintf(&b, "%-24s %10s %10s\n", "", "static", "re-opt")
	fmt.Fprintf(&b, "%-24s %10.2f %10.2f\n", "geometric-mean slowdown", r.GeoStatic, r.GeoAdaptive)
	fmt.Fprintf(&b, "%-24s %10d %10d\n", "timeouts", r.TimeoutsStatic, r.TimeoutsAdaptive)
	fmt.Fprintf(&b, "\nreplans: %d, probes: %d; families improved by re-optimization: %d of %d\n\n",
		r.Replans, r.Probes, r.Improved, len(r.Families))
	fmt.Fprintf(&b, "%-8s %8s %10s %10s %9s\n", "family", "queries", "static", "re-opt", "replans")
	for _, f := range r.Families {
		fmt.Fprintf(&b, "%-8s %8d %10.2f %10.2f %9d\n",
			f.Family, f.Queries, f.GeoStatic, f.GeoAdaptive, f.Replans)
	}
	return b.String()
}
