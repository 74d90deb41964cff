package main

import (
	"math/rand"

	"jobench"
	"jobench/internal/engine"
	"jobench/internal/optimizer"
)

// op is one operation of a workload: the unit ops_per_s counts and whose
// latency the percentiles describe. Ops with the same ID are the same
// request and must give the same answer.
type op struct {
	ID        int
	Kind      string // optimize | execute | truth | estimate
	Query     string
	Estimator string
	Indexes   jobench.IndexConfig
	Path      string // serve.*: the route
	Body      []byte // serve.*: the request body
	Weight    int    // serve.mixed: how often the open loop's mix repeats it
}

// answer is what an op returned, reduced to the fields the correctness gate
// compares. Two answers are equal when == says so.
type answer struct {
	Cost      float64
	Rows      int64
	Work      int64
	Plan      uint64 // hash of the EXPLAIN text
	Card      float64
	Subgraphs int64
}

// instance is one set-up workload: what set-up builds and the timed phase
// drives. A fresh one is built for every repeated set-up.
type instance interface {
	// ops is one pass: the fixed list the timed phase shuffles and repeats.
	ops() []op
	// do performs o through the program's public surface.
	do(client int, o op) (answer, error)
	// traceSetup builds what unrolled needs: a world of the benchmark's own.
	traceSetup(rec *recorder) error
	// unrolled performs o as explicit calls into each layer, recording a
	// span per call under root, and returns what do would have.
	unrolled(client int, rec *recorder, root int32, o op) (answer, error)
	// reset runs untimed before every pass.
	reset(traced bool, rec *recorder) error
	// finish runs untimed after the last pass and may add per-layer
	// metrics of its own (truth.cold's warm open).
	finish(traced bool, rec *recorder, extra map[string]float64) error
	// verify is the workload's share of the correctness gate beyond "every
	// op repeats its reference answer". full widens sampled checks to every
	// query.
	verify(ref []answer, full bool, rng *rand.Rand, g *gate)
	close() error
}

// sampleSize is how many queries a sampled cross-check covers per run; the
// run without -workload checks them all.
const sampleSize = 12

// sampleQueries picks the queries a sampled check covers.
func sampleQueries(ids []string, full bool, rng *rand.Rand) []string {
	if full || len(ids) <= sampleSize {
		return ids
	}
	out := make([]string, 0, sampleSize)
	for _, i := range rng.Perm(len(ids))[:sampleSize] {
		out = append(out, ids[i])
	}
	return out
}

// strided keeps every stride-th id: the smoke run's way of staying short.
func strided(ids []string, stride int) []string {
	if stride <= 1 {
		return ids
	}
	var out []string
	for i := 0; i < len(ids); i += stride {
		out = append(out, ids[i])
	}
	return out
}

func quiet(string, ...any) {}

// facadeInstance backs plan.job, exec.tpch and exec.job: one System, ops
// that are a single facade call.
type facadeInstance struct {
	workload string
	scale    float64
	sys      *jobench.System
	ids      []string
	list     []op
	world    *layerWorld
	runners  [maxClients]*engine.Runner // one per client, as Runner is not concurrency-safe
	execute  bool
}

var (
	bothEstimators = []string{jobench.EstPostgres, jobench.EstHyPer}
	allDesigns     = []jobench.IndexConfig{jobench.NoIndexes, jobench.PKOnly, jobench.PKFK}
)

func openFacade(workload string, scale float64, stride int) (*facadeInstance, error) {
	sys, err := jobench.Open(jobench.Options{Workload: workload, Scale: scale, Seed: worldSeed, Logf: quiet})
	if err != nil {
		return nil, err
	}
	return &facadeInstance{workload: workload, scale: scale, sys: sys, ids: strided(sys.QueryIDs(), stride)}, nil
}

// openPlanJob: every JOB query under both estimators and two physical
// designs, planned by exhaustive DP with nested-loop joins disabled.
func openPlanJob(sz sizing) (instance, error) {
	f, err := openFacade("imdb", sz.imdbScale, sz.stride)
	if err != nil {
		return nil, err
	}
	for _, q := range f.ids {
		for _, est := range bothEstimators {
			for _, idx := range []jobench.IndexConfig{jobench.PKOnly, jobench.PKFK} {
				f.list = append(f.list, op{ID: len(f.list), Kind: "optimize", Query: q, Estimator: est, Indexes: idx})
			}
		}
	}
	return f, nil
}

// openExec: every query of the world executed under one design.
func openExec(workload string, scale float64, stride int, idx jobench.IndexConfig) (instance, error) {
	f, err := openFacade(workload, scale, stride)
	if err != nil {
		return nil, err
	}
	f.execute = true
	for _, q := range f.ids {
		f.list = append(f.list, op{ID: len(f.list), Kind: "execute", Query: q, Estimator: jobench.EstPostgres, Indexes: idx})
	}
	return f, nil
}

func (f *facadeInstance) ops() []op { return f.list }

func planOptions(o op) jobench.PlanOptions {
	return jobench.PlanOptions{Estimator: o.Estimator, Indexes: o.Indexes, DisableNestedLoops: true}
}

func (f *facadeInstance) do(_ int, o op) (answer, error) {
	if o.Kind == "optimize" {
		text, cost, err := f.sys.Optimize(o.Query, planOptions(o))
		return answer{Cost: cost, Plan: hashText(text)}, err
	}
	res, err := f.sys.Execute(o.Query, jobench.RunOptions{PlanOptions: planOptions(o), Rehash: true})
	return answer{Rows: res.Rows, Work: res.Work, Plan: hashText(res.Plan)}, err
}

func (f *facadeInstance) traceSetup(rec *recorder) (err error) {
	for i := range f.runners {
		f.runners[i] = engine.NewRunner()
	}
	f.world, err = buildLayerWorld(f.workload, f.scale, rec)
	return err
}

func (f *facadeInstance) unrolled(client int, rec *recorder, root int32, o op) (answer, error) {
	if o.Kind == "optimize" {
		_, _, ans, err := f.world.optimize(rec, root, o)
		return ans, err
	}
	return f.world.execute(rec, f.runners[client], root, o)
}

func (f *facadeInstance) reset(bool, *recorder) error { return nil }

func (f *facadeInstance) finish(bool, *recorder, map[string]float64) error { return nil }

func (f *facadeInstance) close() error { return nil }

func (f *facadeInstance) verify(ref []answer, full bool, rng *rand.Rand, g *gate) {
	sample := sampleQueries(f.ids, full, rng)
	if f.execute {
		f.verifyExec(ref, sample, g)
	} else {
		f.verifyPlan(ref, sample, g)
	}
}

// verifyExec: a query's result size cannot depend on the physical design or
// on whose estimates chose the plan.
func (f *facadeInstance) verifyExec(ref []answer, sample []string, g *gate) {
	rows := make(map[string]int64)
	for _, o := range f.list {
		rows[o.Query] = ref[o.ID].Rows
	}
	for _, q := range sample {
		for _, idx := range allDesigns {
			for _, est := range bothEstimators {
				res, err := f.sys.Execute(q, jobench.RunOptions{
					PlanOptions: jobench.PlanOptions{Estimator: est, Indexes: idx, DisableNestedLoops: true},
					Rehash:      true,
				})
				g.check(err == nil && res.Rows == rows[q], "%s %s/%s: %d rows (%v), want %d", q, idx.Label(), est, res.Rows, err, rows[q])
			}
		}
	}
}

// verifyPlan: exhaustive DP searches a superset of what the heuristics
// search, so on the same space its plan can never cost more.
func (f *facadeInstance) verifyPlan(ref []answer, sample []string, g *gate) {
	dp := make(map[string]float64)
	for _, o := range f.list {
		if o.Estimator == jobench.EstPostgres && o.Indexes == jobench.PKFK {
			dp[o.Query] = ref[o.ID].Cost
		}
	}
	for _, q := range sample {
		for _, alg := range []optimizer.Algorithm{optimizer.GOO, optimizer.QuickPick1000} {
			_, cost, err := f.sys.Optimize(q, jobench.PlanOptions{
				Estimator: jobench.EstPostgres, Indexes: jobench.PKFK,
				DisableNestedLoops: true, Algorithm: alg, Seed: worldSeed,
			})
			g.check(err == nil && dp[q] <= cost*(1+1e-9), "%s: DP cost %g, %v cost %g (%v)", q, dp[q], alg, cost, err)
		}
	}
}
