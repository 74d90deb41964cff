package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"jobench/internal/plan"
)

var (
	labOnce sync.Once
	testLab *Lab
	labErr  error
)

// skipSlowInShort guards the tests that execute the full workload through
// the engine (the multi-second sweeps); `go test -short` keeps only the
// estimation-quality tests, which still exercise every layer above it.
func skipSlowInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow full-workload sweep; run without -short")
	}
}

// sharedLab builds one small lab for the whole test package and warms the
// true-cardinality cache in parallel.
func sharedLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		testLab, labErr = NewLab(QuickConfig())
		if labErr == nil {
			labErr = testLab.Warmup(context.Background())
		}
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return testLab
}

func TestTable1ShapesLikePaper(t *testing.T) {
	l := sharedLab(t)
	res, err := l.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d systems, want 5", len(res.Rows))
	}
	if res.Selections < 200 {
		t.Fatalf("only %d base selections", res.Selections)
	}
	byName := map[string]Table1Row{}
	for _, r := range res.Rows {
		byName[r.System] = r
		// Medians near 1 for all systems (paper: 1.00-1.06).
		if r.Median > 5 {
			t.Errorf("%s: median base q-error %.2f, want near 1", r.System, r.Median)
		}
		if r.Maximum < r.P95 || r.P95 < r.P90 || r.P90 < r.Median {
			t.Errorf("%s: percentiles not monotone: %+v", r.System, r)
		}
	}
	// DBMS C's magic constants must give it by far the worst tail among
	// histogram-based systems (paper: 95th percentile 5367 vs 2-30).
	if byName["DBMS C"].P95 < byName["PostgreSQL"].P95 {
		t.Errorf("DBMS C 95th (%.1f) not above PostgreSQL (%.1f)",
			byName["DBMS C"].P95, byName["PostgreSQL"].P95)
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Fatal("render broken")
	}
	pinReport(t, "table1", res.Render())
}

func TestFigure3UnderestimationGrows(t *testing.T) {
	l := sharedLab(t)
	res, err := l.Figure3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 5 {
		t.Fatalf("%d systems", len(res.Systems))
	}
	for _, sys := range res.Systems {
		if sys.ByJoins[0].N == 0 || sys.ByJoins[3].N == 0 {
			t.Fatalf("%s: missing error populations", sys.System)
		}
	}
	pg := res.Systems[0]
	// The paper's central finding: the median drifts into underestimation
	// as joins increase, and the spread (p95-p5) widens.
	if pg.ByJoins[4].P50 >= pg.ByJoins[0].P50 {
		t.Errorf("PostgreSQL median at 4 joins (%.3g) not below 0 joins (%.3g)",
			pg.ByJoins[4].P50, pg.ByJoins[0].P50)
	}
	spread0 := pg.ByJoins[0].P95 / pg.ByJoins[0].P5
	spread4 := pg.ByJoins[4].P95 / pg.ByJoins[4].P5
	if spread4 < spread0 {
		t.Errorf("error spread at 4 joins (%.3g) not wider than at 0 (%.3g)", spread4, spread0)
	}
	// §3.2: the fraction off by >10x grows with the join count.
	if pg.FracOffBy10[3] <= pg.FracOffBy10[1]/2 {
		t.Errorf(">10x fraction at 3 joins (%.2f) not above 1 join (%.2f)",
			pg.FracOffBy10[3], pg.FracOffBy10[1])
	}
	// DBMS A's damping keeps deep medians above PostgreSQL's.
	var a Figure3System
	for _, sys := range res.Systems {
		if sys.System == "DBMS A" {
			a = sys
		}
	}
	if a.ByJoins[4].P50 < pg.ByJoins[4].P50 {
		t.Errorf("DBMS A deep median (%.3g) below PostgreSQL (%.3g): damping not visible",
			a.ByJoins[4].P50, pg.ByJoins[4].P50)
	}
	if !strings.Contains(res.Render(), "Figure 3") {
		t.Fatal("render broken")
	}
	pinReport(t, "fig3", res.Render())
}

func TestFigure4TPCHIsEasy(t *testing.T) {
	l := sharedLab(t)
	res, err := l.Figure4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 7 {
		t.Fatalf("%d panels, want 7 (4 JOB + 3 TPC-H)", len(res.Panels))
	}
	worstJOB, worstTPCH := 1.0, 1.0
	for _, p := range res.Panels {
		if strings.HasPrefix(p.Query, "JOB") {
			if q := p.MaxQError(); q > worstJOB {
				worstJOB = q
			}
		} else {
			if q := p.MaxQError(); q > worstTPCH {
				worstTPCH = q
			}
		}
	}
	// The paper's contrast: JOB errors dwarf TPC-H errors.
	if worstJOB < 5*worstTPCH {
		t.Errorf("JOB worst q-error (%.1f) not far above TPC-H (%.1f)", worstJOB, worstTPCH)
	}
	if !strings.Contains(res.Render(), "TPC-H") {
		t.Fatal("render broken")
	}
	pinReport(t, "fig4", res.Render())
}

func TestFigure5TrueDistinctWorsensUnderestimation(t *testing.T) {
	l := sharedLab(t)
	res, err := l.Figure5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The paradox of §3.4: exact distinct counts push the medians further
	// down (the sampled, underestimated counts inflated the estimates,
	// accidentally cancelling the independence error). Verify at >= 3
	// joins where the effect compounds.
	worse := 0
	checked := 0
	for nj := 3; nj < len(res.Default); nj++ {
		if res.Default[nj].N == 0 {
			continue
		}
		checked++
		if res.TrueDistinct[nj].P50 <= res.Default[nj].P50 {
			worse++
		}
	}
	if checked == 0 {
		t.Fatal("no deep subexpressions")
	}
	if worse == 0 {
		t.Error("true distinct counts never deepened underestimation")
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Fatal("render broken")
	}
	pinReport(t, "fig5", res.Render())
}

func TestSection41SlowdownTable(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Section41(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		sum := 0.0
		for _, f := range row.Buckets {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: bucket fractions sum to %f", row.System, sum)
		}
		// With the robust engine most queries stay within 10x (paper:
		// >=78% under 2x for the best estimator; we only require the bulk
		// to be sane at test scale).
		within10 := row.Buckets[0] + row.Buckets[1] + row.Buckets[2] + row.Buckets[3]
		if within10 < 0.5 {
			t.Errorf("%s: only %.0f%% of queries within 10x of optimal", row.System, 100*within10)
		}
	}
	if !strings.Contains(res.Render(), "Section 4.1") {
		t.Fatal("render broken")
	}
	pinReport(t, "sec41", res.Render())
}

func TestFigure6EngineHardeningHelps(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Figure6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 3 {
		t.Fatalf("%d variants", len(res.Variants))
	}
	badFrac := func(v Figure6Variant) float64 { return v.Buckets[4] + v.Buckets[5] }
	a, c := res.Variants[0], res.Variants[2]
	// Hardening must not make things worse, and usually strictly helps.
	if badFrac(c) > badFrac(a)+1e-9 {
		t.Errorf("hardened engine has more >=10x queries (%.2f) than default (%.2f)", badFrac(c), badFrac(a))
	}
	if c.Timeouts > a.Timeouts {
		t.Errorf("hardened engine times out more (%d) than default (%d)", c.Timeouts, a.Timeouts)
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Fatal("render broken")
	}
	pinReport(t, "fig6", res.Render())
}

func TestFigure7MoreIndexesHarderProblem(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Figure7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 2 {
		t.Fatalf("%d variants", len(res.Variants))
	}
	slowFrac := func(v Figure6Variant) float64 {
		return v.Buckets[3] + v.Buckets[4] + v.Buckets[5] // >= 2x
	}
	pk, fk := res.Variants[0], res.Variants[1]
	// Paper Fig. 7: with FK indexes, far more queries are >= 2x off.
	if slowFrac(fk) < slowFrac(pk) {
		t.Errorf("FK config (%.2f >=2x) not harder than PK (%.2f)", slowFrac(fk), slowFrac(pk))
	}
	pinReport(t, "fig7", figure7Report(res).Render())
}

func TestFigure8CostModels(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Figure8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 6 {
		t.Fatalf("%d panels, want 6", len(res.Panels))
	}
	byKey := map[string]Figure8Panel{}
	for _, p := range res.Panels {
		key := p.Model
		if p.TrueCards {
			key += "/true"
		} else {
			key += "/est"
		}
		byKey[key] = p
	}
	// True cardinalities make every model a better runtime predictor than
	// estimates (paper Fig. 8 a vs b).
	for _, m := range []string{"postgres", "tuned postgres", "simple (C_mm)"} {
		est, tr := byKey[m+"/est"], byKey[m+"/true"]
		if tr.Fit.Pearson < est.Fit.Pearson-0.05 {
			t.Errorf("%s: correlation under truth (%.3f) worse than under estimates (%.3f)",
				m, tr.Fit.Pearson, est.Fit.Pearson)
		}
		if tr.Fit.Pearson < 0.5 {
			t.Errorf("%s: correlation under truth only %.3f", m, tr.Fit.Pearson)
		}
	}
	if len(res.GeoMeanRuntime) != 3 {
		t.Fatalf("geo means: %v", res.GeoMeanRuntime)
	}
	if !strings.Contains(res.Render(), "Figure 8") {
		t.Fatal("render broken")
	}
	pinReport(t, "fig8", res.Render())
}

func TestFigure9AndSection61(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Figure9(context.Background(), 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 15 {
		t.Fatalf("%d panels, want 5 queries x 3 configs", len(res.Panels))
	}
	for _, p := range res.Panels {
		if p.Box.MinValue < p.Optimal-1e-9 {
			t.Errorf("%s/%s: random plan (%.3g) beat the optimal plan (%.3g)",
				p.Query, p.Config, p.Box.MinValue, p.Optimal)
		}
	}
	// §6.1: good plans get rarer as indexes are added; the cost spread
	// explodes with FK indexes.
	if res.Frac15["PK + FK indexes"] > res.Frac15["no indexes"] {
		t.Errorf("good plans more common with FK indexes (%.2f) than without (%.2f)",
			res.Frac15["PK + FK indexes"], res.Frac15["no indexes"])
	}
	if res.MeanWorstBest["PK + FK indexes"] < res.MeanWorstBest["PK indexes"] {
		t.Errorf("worst/best ratio with FK (%.0f) below PK (%.0f)",
			res.MeanWorstBest["PK + FK indexes"], res.MeanWorstBest["PK indexes"])
	}
	if !strings.Contains(res.Render(), "Section 6.1") {
		t.Fatal("render broken")
	}
	// The registry runs fig9 at DefaultSamples, not this test's 400.
	pinRegistryRun(t, l, "fig9")
}

func TestTable2TreeShapes(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(res.Rows))
	}
	get := func(shape plan.Shape, cfg string) Table2Row {
		for _, r := range res.Rows {
			if r.Shape == shape && r.Config == cfg {
				return r
			}
		}
		t.Fatalf("missing row %v/%s", shape, cfg)
		return Table2Row{}
	}
	for _, r := range res.Rows {
		if r.Median < 1-1e-9 {
			t.Errorf("%v/%s: median %.2f < 1 (restriction cannot beat bushy)", r.Shape, r.Config, r.Median)
		}
	}
	// Paper Table 2's ordering under FK indexes: zig-zag <= left-deep <<
	// right-deep.
	fkZ, fkL, fkR := get(plan.ZigZag, "PK + FK indexes"), get(plan.LeftDeep, "PK + FK indexes"), get(plan.RightDeep, "PK + FK indexes")
	if fkZ.Median > fkL.Median+1e-9 {
		t.Errorf("zig-zag median (%.2f) above left-deep (%.2f)", fkZ.Median, fkL.Median)
	}
	if fkR.Median < fkL.Median {
		t.Errorf("right-deep median (%.2f) below left-deep (%.2f)", fkR.Median, fkL.Median)
	}
	if fkR.Max < 10 {
		t.Errorf("right-deep max only %.1fx with FK indexes; paper reports catastrophic factors", fkR.Max)
	}
	if !strings.Contains(res.Render(), "Table 2") {
		t.Fatal("render broken")
	}
	pinReport(t, "table2", res.Render())
}

func TestTable3HeuristicsLeavePerformance(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(res.Rows))
	}
	get := func(alg, cards, cfg string) Table3Row {
		for _, r := range res.Rows {
			if r.Algorithm == alg && strings.HasPrefix(r.Cards, cards) && r.Config == cfg {
				return r
			}
		}
		t.Fatalf("missing row %s/%s/%s", alg, cards, cfg)
		return Table3Row{}
	}
	// DP with true cardinalities is optimal by definition.
	for _, cfg := range []string{"PK indexes", "PK + FK indexes"} {
		dpTrue := get("Dynamic Programming", "true", cfg)
		if dpTrue.Median != 1 || dpTrue.Max > 1+1e-6 {
			t.Errorf("%s: DP under truth not optimal: %+v", cfg, dpTrue)
		}
		// Heuristics never beat DP under the same provider.
		for _, alg := range []string{"Quickpick-1000", "Greedy Operator Ordering"} {
			h := get(alg, "true", cfg)
			if h.Median < dpTrue.Median-1e-9 {
				t.Errorf("%s/%s: heuristic median %.2f beats DP", alg, cfg, h.Median)
			}
		}
		dpEst := get("Dynamic Programming", "PostgreSQL", cfg)
		if dpEst.Median < 1-1e-9 {
			t.Errorf("%s: DP under estimates median %.3f < 1", cfg, dpEst.Median)
		}
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Fatal("render broken")
	}
	pinReport(t, "table3", res.Render())
}

func TestLabBasics(t *testing.T) {
	l := sharedLab(t)
	if len(l.QueryIDs()) != len(l.Queries) {
		t.Fatal("QueryIDs mismatch")
	}
	if _, err := l.Truth(context.Background(), "nonexistent"); err == nil {
		t.Fatal("Truth accepted unknown query")
	}
	if len(l.Systems()) != 5 {
		t.Fatal("want 5 systems")
	}
}
