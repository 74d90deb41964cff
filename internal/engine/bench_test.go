package engine

import (
	"fmt"
	"sync"
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/enum"
	"jobench/internal/imdb"
	"jobench/internal/index"
	"jobench/internal/job"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/workload"
)

// benchEnv is the scale-0.1 world the engine micro-benches run in: database,
// PK+FK indexes, and optimizer plans for the whole JOB workload, all built
// once outside the timed sections.
type benchEnv struct {
	db    *storage.Database
	pkfk  *index.Set
	graph map[string]*query.Graph
	plans map[string]*plan.Node
	order []string
}

var (
	benchOnce     sync.Once
	benchWorld    *benchEnv
	benchSetupErr error
)

func benchSetup(b *testing.B) *benchEnv {
	b.Helper()
	benchOnce.Do(func() {
		db := imdb.Generate(imdb.Config{Scale: 0.1, Seed: 42})
		sdb := stats.AnalyzeDatabase(db, stats.Options{SampleSize: 2000, Seed: 1})
		wl, _ := workload.Get("imdb")
		pkfk, err := wl.BuildIndexes(db, index.PKFK)
		if err != nil {
			benchSetupErr = err
			return
		}
		pg := cardest.NewPostgres(db, sdb)
		env := &benchEnv{
			db: db, pkfk: pkfk,
			graph: make(map[string]*query.Graph),
			plans: make(map[string]*plan.Node),
		}
		for _, q := range job.Workload() {
			g := query.MustBuildGraph(q)
			sp := &enum.Space{
				G: g, DB: db, Cards: pg.ForQuery(g),
				Model: costmodel.NewTuned(), Indexes: pkfk, DisableNLJ: true,
			}
			root, err := enum.DP(sp)
			if err != nil {
				benchSetupErr = err
				return
			}
			env.graph[q.ID] = g
			env.plans[q.ID] = root
			env.order = append(env.order, q.ID)
		}
		benchWorld = env
	})
	if benchSetupErr != nil {
		b.Fatal(benchSetupErr)
	}
	return benchWorld
}

// BenchmarkEngineExecuteJOB executes the optimizer's plan for every JOB
// query (scale 0.1, PK+FK indexes, rehash on) per iteration — the engine's
// end-to-end throughput number behind every runtime experiment. The
// stats=off/stats=on pair bounds the cost of per-operator actuals
// collection (EXPLAIN ANALYZE): off is the default request path and must
// not regress; on adds block-boundary counter updates plus a wall-clock
// read per executed block.
func BenchmarkEngineExecuteJOB(b *testing.B) {
	env := benchSetup(b)
	stats := make(map[string][]plan.NodeStats, len(env.order))
	for _, id := range env.order {
		stats[id] = make([]plan.NodeStats, plan.NumNodes(env.plans[id]))
	}
	for _, on := range []bool{false, true} {
		name := "stats=off"
		if on {
			name = "stats=on"
		}
		b.Run(name, func(b *testing.B) {
			runner := NewRunner() // the sweep pattern: scratch reused across plans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, id := range env.order {
					cfg := Config{Rehash: true}
					if on {
						cfg.Stats = stats[id]
					}
					if _, err := runner.Run(env.db, env.pkfk, env.graph[id], env.plans[id], cfg); err != nil {
						b.Fatalf("%s: %v", id, err)
					}
				}
			}
		})
	}
}

// BenchmarkEngineHashJoin isolates the hash-join path: one multi-join query
// with every operator forced to HashJoin, executed per iteration. The
// serial-baseline pattern from the truecard benches: block=1 degenerates
// the executor to row-at-a-time (every tuple settles with the work limit,
// every emit is a one-row gather), block=1024 is the production setting —
// work totals are identical at both, only wall-clock differs.
func BenchmarkEngineHashJoin(b *testing.B) {
	env := benchSetup(b)
	const qid = "13d" // 9 relations, large intermediates
	root := clonePlan(env.plans[qid])
	forceHash(root)
	for _, block := range []int{1, 1024} {
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			defer func(old int) { blockSize = old }(blockSize)
			blockSize = block
			runner := NewRunner()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(env.db, env.pkfk, env.graph[qid], root, Config{Rehash: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func clonePlan(n *plan.Node) *plan.Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Left = clonePlan(n.Left)
	c.Right = clonePlan(n.Right)
	return &c
}

func forceHash(n *plan.Node) {
	if n == nil || n.IsLeaf() {
		return
	}
	n.Algo = plan.HashJoin
	forceHash(n.Left)
	forceHash(n.Right)
}
