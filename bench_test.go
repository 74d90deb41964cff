// Benchmarks regenerating every table and figure of the paper, one bench
// per artifact (see DESIGN.md's experiment index), plus micro-benchmarks of
// the optimizer substrate. The shared lab (data generation, statistics,
// true cardinalities) is built once outside the timed sections.
//
// Run with: go test -bench=. -benchmem
package jobench_test

import (
	"context"
	"sync"
	"testing"

	"jobench"
	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/engine"
	"jobench/internal/enum"
	"jobench/internal/experiments"
	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/truecard"
)

var (
	benchOnce sync.Once
	benchLab  *experiments.Lab
	benchErr  error
)

func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab, benchErr = experiments.NewLab(experiments.QuickConfig())
		if benchErr == nil {
			benchErr = benchLab.Warmup(context.Background())
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

// --- one benchmark per paper artifact ---------------------------------------

func BenchmarkTable1BaseTableQErrors(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Table1(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3JoinEstimates(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Figure3(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4TPCH(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Figure4(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5TrueDistinct(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Figure5(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection41InjectedEstimates(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Section41(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6RiskyPlans(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Figure6(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7Indexes(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Figure7(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8CostModels(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Figure8(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9PlanSpace(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Figure9(context.Background(), 500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2TreeShapes(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Table2(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Heuristics(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Table3(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReoptJOB runs the adaptive re-optimization experiment — static
// vs re-optimized vs feedback-warm over all 113 JOB queries.
func BenchmarkReoptJOB(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Reopt(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ----------------------------------------------

func BenchmarkGenerateIMDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		imdb.Generate(imdb.Config{Scale: 0.05, Seed: int64(i)})
	}
}

func BenchmarkAnalyze(b *testing.B) {
	db := imdb.Generate(imdb.Config{Scale: 0.1, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.AnalyzeDatabase(db, stats.DefaultOptions())
	}
}

func BenchmarkTrueCardinalities13d(b *testing.B) {
	l := lab(b)
	g := l.Graphs["13d"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Parallel: 1 keeps this the serial baseline it has always been;
		// truecard's BenchmarkTruecardCompute covers the parallel DP.
		if _, err := truecard.Compute(l.DB, g, truecard.Options{Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSpace(l *experiments.Lab, qid string) *enum.Space {
	g := l.Graphs[qid]
	return &enum.Space{
		G: g, DB: l.DB, Cards: l.Postgres.ForQuery(g),
		Model: costmodel.NewSimple(), Indexes: l.IdxPKFK, DisableNLJ: true,
	}
}

func BenchmarkDPExhaustive17Relations(b *testing.B) {
	l := lab(b)
	sp := benchSpace(l, "29a") // 17 relations, the workload's largest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.DP(sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPccp17Relations(b *testing.B) {
	l := lab(b)
	sp := benchSpace(l, "29a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.DPccp(sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuickPick1000(b *testing.B) {
	l := lab(b)
	sp := benchSpace(l, "13d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.QuickPickBest(sp, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGOO(b *testing.B) {
	l := lab(b)
	sp := benchSpace(l, "13d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.GOO(sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteHashJoinPlan(b *testing.B) {
	l := lab(b)
	g := l.Graphs["13d"]
	st, err := l.Truth(context.Background(), "13d")
	if err != nil {
		b.Fatal(err)
	}
	sp := benchSpace(l, "13d")
	sp.Cards = cardest.True{Store: st}
	root, err := enum.DP(sp)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(l.DB, l.IdxPKFK, g, root, engine.Config{Rehash: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatorPostgresFullWorkload(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range job.Workload() {
			g := l.Graphs[q.ID]
			if g == nil {
				continue
			}
			prov := l.Postgres.ForQuery(g)
			prov.Card(query.FullSet(g.N))
		}
	}
}

// BenchmarkEngineExecuteTPCH measures the execution engine on the tpch
// workload end to end (the smoke-bench counterpart of the IMDB paths
// above): plan and run one of the ten SPJ families against the uniform,
// independent world.
func BenchmarkEngineExecuteTPCH(b *testing.B) {
	sys, err := jobench.Open(jobench.Options{Workload: "tpch", Scale: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Execute("tpch5", jobench.RunOptions{
			PlanOptions: jobench.PlanOptions{DisableNestedLoops: true},
			Rehash:      true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkPublicAPI measures the facade end to end on a small instance.
func BenchmarkPublicAPI(b *testing.B) {
	sys, err := jobench.Open(jobench.Options{Scale: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Execute("3b", jobench.RunOptions{
			PlanOptions: jobench.PlanOptions{DisableNestedLoops: true},
			Rehash:      true,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
