package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"jobench/internal/costmodel"
	"jobench/internal/job"
	"jobench/internal/metrics"
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

// ReoptFamily is one query family's aggregate.
type ReoptFamily struct {
	// Family is the query ids' family, job.FamilyOf: "13" for 13a-13d;
	// a TPC-H id such as "tpch5" is its own family.
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
	perQuery, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (reoptCell, error) {
		sp := l.space(q.ID, l.Postgres.ForQuery(l.Graphs[q.ID]), model, l.IdxPK, rules.DisableNLJ)
		cell := reoptCell{family: job.FamilyOf(q.ID)}

		// Static: the paper's baseline — plan once on estimates, run to the
		// timeout.
		st, err := l.runOne(ctx, sp, rules.Rehash)
		if err != nil {
			return reoptCell{}, err
		}
		if st.timedOut {
			cell.static, cell.toStatic = timeoutFactor, true
		} else {
			cell.static = slowdownOf(st.work, st.baseWork)
		}

		// Re-optimized: adaptive execution from a cold start in the same
		// space. The adaptive work accounting (final plan + non-reused
		// probes) maps onto the same timeout rule: past the limit it counts
		// exactly like a static timeout.
		limit := timeoutFactor * st.baseWork
		rres, err := reopt.Run(ctx, sp, reopt.Config{Rehash: rules.Rehash, WorkLimit: limit})
		if err != nil {
			return reoptCell{}, fmt.Errorf("%s adaptive: %w", q.ID, err)
		}
		cell.replans, cell.probes = rres.Replans, len(rres.Steps)
		if rres.TimedOut || rres.Work >= limit {
			cell.adaptive, cell.toAdaptive = timeoutFactor, true
		} else {
			if rres.Rows != st.baseRows {
				return reoptCell{}, fmt.Errorf("%s adaptive: returned %d rows, baseline %d", q.ID, rres.Rows, st.baseRows)
			}
			cell.adaptive = slowdownOf(rres.Work, st.baseWork)
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
