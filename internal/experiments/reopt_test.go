package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"jobench/internal/costmodel"
	"jobench/internal/engine"
	"jobench/internal/index"
	"jobench/internal/optimizer"
	"jobench/internal/query"
	"jobench/internal/reopt"
)

func TestReoptExperiment(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Reopt(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: mid-execution re-optimization must not cost more
	// than static planning in the aggregate, and at least one query family
	// must actually improve.
	if res.GeoAdaptive > res.GeoStatic+1e-9 {
		t.Errorf("geomean re-optimized %.3f worse than static %.3f", res.GeoAdaptive, res.GeoStatic)
	}
	if res.Improved < 1 {
		t.Errorf("no family improved by re-optimization")
	}
	if len(res.Families) < 30 {
		t.Errorf("%d families, want the full workload's 33", len(res.Families))
	}
	if res.Probes == 0 {
		t.Error("no probes recorded")
	}
	out := res.Render()
	if !strings.Contains(out, "Adaptive re-optimization") || !strings.Contains(out, "family") {
		t.Fatalf("render broken:\n%s", out)
	}
	pinReport(t, "reopt", out)
	t.Logf("reopt: static %.3f re-opt %.3f, replans %d, probes %d, improved %d/%d",
		res.GeoStatic, res.GeoAdaptive, res.Replans, res.Probes, res.Improved, len(res.Families))
}

// TestReoptNoReplanMatchesStatic is the adaptive accounting's metamorphic
// check: with a q-error threshold no probe can exceed, reopt.Run never
// replans, every probed intermediate survives into the final plan and is
// refunded, so the adaptive run must cost exactly the work of executing the
// static plan and return its rows. Every query under every physical
// design; every 10th query under -short.
func TestReoptNoReplanMatchesStatic(t *testing.T) {
	l := sharedLab(t)
	model := costmodel.NewTuned()
	designs := []struct {
		name string
		idx  *index.Set
	}{{"none", l.IdxNone}, {"PK", l.IdxPK}, {"PK+FK", l.IdxPKFK}}
	mismatches, err := runQueries(context.Background(), l, func(ctx context.Context, qi int, q *query.Query) ([]string, error) {
		if testing.Short() && qi%10 != 0 {
			return nil, nil
		}
		g := l.Graphs[q.ID]
		prov := l.Postgres.ForQuery(g)
		runner := runnerPool.Get().(*engine.Runner)
		defer runnerPool.Put(runner)
		var bad []string
		for _, d := range designs {
			opt := &optimizer.Optimizer{DB: l.DB, Model: model, Indexes: d.idx, DisableNLJ: true}
			static, err := opt.Optimize(g, prov)
			if err != nil {
				return nil, err
			}
			want, err := runner.Run(l.DB, d.idx, g, static, engine.Config{Rehash: true})
			if err != nil {
				return nil, fmt.Errorf("%s/%s static: %w", q.ID, d.name, err)
			}
			got, err := reopt.Run(ctx, g, prov, reopt.Config{
				DB: l.DB, Indexes: d.idx, Model: model, DisableNLJ: true, Rehash: true,
				QErrThreshold: math.Inf(1), Runner: runner,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s adaptive: %w", q.ID, d.name, err)
			}
			if got.Replans != 0 || got.Work != want.Work || got.Rows != want.Rows {
				bad = append(bad, fmt.Sprintf("%s/%s: adaptive work %d rows %d replans %d, static work %d rows %d",
					q.ID, d.name, got.Work, got.Rows, got.Replans, want.Work, want.Rows))
			}
		}
		return bad, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range mismatches {
		for _, m := range bad {
			t.Error(m)
		}
	}
}
