package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
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

// TestReoptFamiliesOnTPCH: a TPC-H id has no letter suffix, so every
// query of the tpch workload is its own family in the reopt report.
func TestReoptFamiliesOnTPCH(t *testing.T) {
	l, err := NewLab(Config{Workload: "tpch", Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Reopt(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Families) != len(l.Queries) {
		t.Fatalf("%d families for %d TPC-H queries", len(res.Families), len(l.Queries))
	}
	for i, f := range res.Families {
		if f.Family != l.Queries[i].ID || f.Queries != 1 {
			t.Errorf("family %d = %q with %d queries, want %q with 1", i, f.Family, f.Queries, l.Queries[i].ID)
		}
	}
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
	mismatches, err := runQueries(context.Background(), l, func(ctx context.Context, qi int, q *query.Query) ([]string, error) {
		if testing.Short() && qi%10 != 0 {
			return nil, nil
		}
		g := l.Graphs[q.ID]
		prov := l.Postgres.ForQuery(g)
		var bad []string
		for _, cfg := range index.Designs() {
			idx := l.design(cfg)
			sp := l.space(q.ID, prov, model, idx, true)
			static, err := optimizer.Optimize(sp, optimizer.DP, 0)
			if err != nil {
				return nil, err
			}
			want, err := engine.Run(l.DB, idx, g, static, engine.Config{Rehash: true})
			if err != nil {
				return nil, fmt.Errorf("%s/%s static: %w", q.ID, cfg.Label(), err)
			}
			got, err := reopt.Run(ctx, sp, reopt.Config{Rehash: true, QErrThreshold: math.Inf(1)})
			if err != nil {
				return nil, fmt.Errorf("%s/%s adaptive: %w", q.ID, cfg.Label(), err)
			}
			if got.Replans != 0 || got.Work != want.Work || got.Rows != want.Rows {
				bad = append(bad, fmt.Sprintf("%s/%s: adaptive work %d rows %d replans %d, static work %d rows %d",
					q.ID, cfg.Label(), got.Work, got.Rows, got.Replans, want.Work, want.Rows))
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

// TestPlanningLeavesSpaceUnwritten: optimizer.Optimize and reopt.Run only
// read the caller's Space — a replan plans in a copy whose provider carries
// the observations — so one Space may be planned in again or shared across
// goroutines. 20a replans at QuickConfig under the reopt report's settings.
func TestPlanningLeavesSpaceUnwritten(t *testing.T) {
	l := sharedLab(t)
	sp := l.space("20a", l.Postgres.ForQuery(l.Graphs["20a"]), costmodel.NewTuned(), l.IdxPK, true)
	want := *sp
	if _, err := optimizer.Optimize(sp, optimizer.DP, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*sp, want) {
		t.Errorf("optimizer.Optimize wrote the Space: %+v, was %+v", *sp, want)
	}
	res, err := reopt.Run(context.Background(), sp, reopt.Config{Rehash: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans == 0 {
		t.Fatal("20a did not replan, so nothing a replan could write was exercised")
	}
	if !reflect.DeepEqual(*sp, want) {
		t.Errorf("reopt.Run wrote the Space (%d replans): %+v, was %+v", res.Replans, *sp, want)
	}
}
