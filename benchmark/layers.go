package main

import (
	"fmt"
	"hash/fnv"

	"jobench"
	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/engine"
	"jobench/internal/enum"
	"jobench/internal/index"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/workload"
)

// worldSeed is the generator seed of every world the benchmark opens. The
// benchmark's own -seed only orders the requests: the program under test
// sees the same data on every run, so runs differ by noise alone and the
// committed expected values hold at any -seed.
const worldSeed = 42

// layerWorld is a world the benchmark builds itself by calling each layer's
// public API in the order the facade does, timing every call from outside.
// Generation is deterministic in (workload, seed, scale), so an op unrolled
// on this world must give the facade's answer for the same op; that check
// is what proves the layers measured here sum to the whole.
type layerWorld struct {
	key     workload.Key
	db      *storage.Database
	stats   *stats.DB
	idx     map[index.Config]*index.Set
	queries []*query.Query
	graphs  map[string]*query.Graph
	est     map[string]cardest.Estimator
}

// analyzeOptions are the facade's ANALYZE settings (jobench.Open).
func analyzeOptions() stats.Options {
	return stats.Options{SampleSize: 30000, MCVTarget: 100, HistBuckets: 100, Seed: worldSeed}
}

// buildLayerWorld generates, analyzes, indexes and parses, one span each.
func buildLayerWorld(name string, scale float64, rec *recorder) (*layerWorld, error) {
	wl, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	w := &layerWorld{
		key:    workload.NewKey(wl.Name(), worldSeed, scale),
		idx:    make(map[index.Config]*index.Set),
		graphs: make(map[string]*query.Graph),
	}
	sp := rec.begin("workload.generate", -1, -1)
	w.db = wl.Generate(w.key.Config())
	rec.end(sp, 0)

	sp = rec.begin("stats.analyze", -1, -1)
	w.stats = stats.AnalyzeDatabase(w.db, analyzeOptions())
	rec.end(sp, 0)

	for _, cfg := range wl.IndexConfigs() {
		sp = rec.begin("index.build", -1, -1)
		set, err := wl.BuildIndexes(w.db, cfg)
		rec.end(sp, 0)
		if err != nil {
			return nil, fmt.Errorf("build %s indexes: %w", cfg.Label(), err)
		}
		w.idx[cfg] = set
	}

	// The registry hands out parsed queries; render each back to SQL and
	// parse it again so the parser is on the clock too.
	for _, q := range wl.Queries() {
		sql := q.SQL()
		sp = rec.begin("query.parse", -1, -1)
		parsed, err := query.ParseSQL(q.ID, sql)
		rec.end(sp, 0)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", q.ID, err)
		}
		if err := parsed.Validate(w.db); err != nil {
			return nil, fmt.Errorf("validate %s: %w", q.ID, err)
		}
		sp = rec.begin("query.graph", -1, -1)
		g, err := query.BuildGraph(parsed)
		rec.end(sp, 0)
		if err != nil {
			return nil, fmt.Errorf("graph %s: %w", q.ID, err)
		}
		w.queries = append(w.queries, parsed)
		w.graphs[q.ID] = g
	}
	w.est = map[string]cardest.Estimator{
		jobench.EstPostgres: cardest.NewPostgres(w.db, w.stats),
		jobench.EstHyPer:    cardest.NewSample(w.db, w.stats),
	}
	return w, nil
}

// callTimer counts the calls a decorator passes through and estimates the
// time they take. A call into cardest or costmodel lasts tens of nanoseconds
// — about what reading the clock twice costs — and one pass makes millions,
// so timing every call would put a fifth on top of the op being measured.
// The timer therefore clocks one call in sampleEvery, picked pseudo-randomly
// so it cannot fall in step with the enumerator's loop, and scales up: calls
// is exact, busy is an estimate.
type callTimer struct {
	rec                  *recorder
	calls, sampled, busy int64
	first                int64 // when the first call began
	lcg                  uint64
}

const sampleEvery = 16

// begin returns the clock reading if this call is to be timed, else -1.
func (t *callTimer) begin() int64 {
	if t.calls == 0 {
		t.first = t.rec.now()
	}
	t.calls++
	t.lcg = t.lcg*6364136223846793005 + 1442695040888963407
	if t.lcg>>60 != 0 { // the top four bits are zero once in sixteen
		return -1
	}
	return t.rec.now()
}

func (t *callTimer) end(t0 int64) {
	if t0 >= 0 {
		t.sampled++
		t.busy += t.rec.now() - t0
	}
}

// record writes the timer's aggregate span under parent.
func (t *callTimer) record(name string, parent, op int32) {
	if t.sampled == 0 {
		return
	}
	busy := int64(float64(t.busy) * float64(t.calls) / float64(t.sampled))
	t.rec.aggregate(name, parent, op, t.first, busy, t.calls)
}

// timedProvider decorates a cardest.Provider.
type timedProvider struct {
	cardest.Provider
	callTimer
}

func (p *timedProvider) Card(s query.BitSet) float64 {
	t0 := p.begin()
	v := p.Provider.Card(s)
	p.end(t0)
	return v
}

func (p *timedProvider) SansSelection(s query.BitSet, r int) float64 {
	t0 := p.begin()
	v := p.Provider.SansSelection(s, r)
	p.end(t0)
	return v
}

// timedModel decorates a costmodel.Model the same way.
type timedModel struct {
	costmodel.Model
	callTimer
}

func (m *timedModel) ScanCost(rows, width float64) float64 {
	t0 := m.begin()
	v := m.Model.ScanCost(rows, width)
	m.end(t0)
	return v
}

func (m *timedModel) HashJoinCost(build, probe, out float64) float64 {
	t0 := m.begin()
	v := m.Model.HashJoinCost(build, probe, out)
	m.end(t0)
	return v
}

func (m *timedModel) SortMergeJoinCost(left, right, out float64) float64 {
	t0 := m.begin()
	v := m.Model.SortMergeJoinCost(left, right, out)
	m.end(t0)
	return v
}

func (m *timedModel) NestedLoopJoinCost(outer, inner, out float64) float64 {
	t0 := m.begin()
	v := m.Model.NestedLoopJoinCost(outer, inner, out)
	m.end(t0)
	return v
}

func (m *timedModel) IndexJoinCost(outer, lookups, out, innerRows, innerWidth float64) float64 {
	t0 := m.begin()
	v := m.Model.IndexJoinCost(outer, lookups, out, innerRows, innerWidth)
	m.end(t0)
	return v
}

// optimize is System.Optimize unrolled: build the provider, run the DP with
// the decorated provider and cost model, validate and render the plan.
func (w *layerWorld) optimize(rec *recorder, root int32, o op) (*plan.Node, *query.Graph, answer, error) {
	g, ok := w.graphs[o.Query]
	if !ok {
		return nil, nil, answer{}, fmt.Errorf("unknown query %q", o.Query)
	}
	opID := int32(o.ID)
	sp := rec.begin("cardest.provider", root, opID)
	prov := &timedProvider{Provider: w.est[o.Estimator].ForQuery(g), callTimer: callTimer{rec: rec}}
	rec.end(sp, 0)
	model := &timedModel{Model: costmodel.NewSimple(), callTimer: callTimer{rec: rec}}

	dp := rec.begin("enum.dp", root, opID)
	node, err := enum.DP(&enum.Space{
		G: g, DB: w.db, Cards: prov, Model: model,
		Indexes: w.idx[o.Indexes], DisableNLJ: true,
	})
	rec.end(dp, 0)
	prov.record("cardest.card", dp, opID)
	model.record("costmodel.cost", dp, opID)
	if err != nil {
		return nil, nil, answer{}, err
	}

	sp = rec.begin("plan.render", root, opID)
	err = plan.Validate(node, g, query.FullSet(g.N))
	text := plan.Explain(node, g)
	rec.end(sp, 0)
	if err != nil {
		return nil, nil, answer{}, err
	}
	return node, g, answer{Cost: node.ECost, Plan: hashText(text)}, nil
}

// execute is System.Execute unrolled: optimize, then run the plan on a
// runner the client keeps across ops, as the facade's pooled runners do.
func (w *layerWorld) execute(rec *recorder, runner *engine.Runner, root int32, o op) (answer, error) {
	node, g, ans, err := w.optimize(rec, root, o)
	if err != nil {
		return answer{}, err
	}
	sp := rec.begin("engine.run", root, int32(o.ID))
	res, err := runner.Run(w.db, w.idx[o.Indexes], g, node, engine.Config{Rehash: true})
	rec.end(sp, res.Work)
	if err != nil {
		return answer{}, err
	}
	rec.count("engine.rows", res.Rows)
	ans.Cost = 0 // Execute does not report the plan's cost
	ans.Rows, ans.Work = res.Rows, res.Work
	return ans, nil
}

func hashText(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
