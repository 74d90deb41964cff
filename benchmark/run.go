package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jobench"
)

// maxClients is the most client goroutines (or connections) any workload
// drives: the sandbox has two cores, and the load generator shares them
// with the program it loads.
const maxClients = 2

// sizing fixes how big every world is. The full sizes are part of the
// instrument: changing one changes every number measured with it.
type sizing struct {
	imdbScale  float64 // plan.job, serve.*
	truthScale float64 // truth.cold
	skewScale  float64 // exec.job
	tpchScale  float64 // exec.tpch
	stride     int     // keep every stride-th query of a world's list
	// Set-up is repeated, and setup_s is the median: at least minSetups
	// times, and on until setupBudget seconds are spent or maxSetups is
	// reached, so that a set-up of 50 ms is timed often enough to be steady.
	minSetups, maxSetups int
	setupBudget          float64
}

var (
	fullSizing = sizing{
		imdbScale: 0.1, truthScale: 0.03, skewScale: 0.3, tpchScale: 8, stride: 1,
		minSetups: 3, maxSetups: 15, setupBudget: 1.5,
	}
	smokeSizing = sizing{
		imdbScale: 0.02, truthScale: 0.02, skewScale: 0.02, tpchScale: 0.25, stride: 6,
		minSetups: 1, maxSetups: 1,
	}
)

// The open loop's frozen settings, calibrated once on the two-core sandbox
// (README, "Calibration") and never derived at run time: a rate that followed
// the program's speed would hide a slowdown. serve.mixed sustains about 400
// req/s there before its backlog grows.
//
// mixedRate is the rate of the end-to-end run: at 113 req/s a run of the
// contract's 10 s sends each of the mix's 1130 requests exactly once, so
// every run times the same requests and only their order follows the seed.
// ladderRates, about 25/50/75% of capacity, are the traced run's steps.
const mixedRate = 113

var ladderRates = []float64{100, 200, 300}

const (
	latencyLimit = 400 * time.Millisecond // tail_ms must stay under it for a rate to count as met
	lateSlack    = 100 * time.Millisecond // a request sent this long after it was due counts as late
	maxLateShare = 0.01
	// openConns is how many connections the open loop sends on. Independent
	// users do not share two connections: with only two, every request
	// behind a 150 ms optimization waits inside the generator, and latency
	// depends on where the shuffle put the slow requests more than on the
	// program. Sixteen leave the queueing to the servers.
	openConns = 16
)

// workloadDef is what differs between the workloads from the harness's
// point of view. The why of each lives in BENCHMARK.json.
type workloadDef struct {
	name    string
	clients int
	// tail is the percentile tail_ms reports: the highest the workload's
	// sample count supports (p99 wants n >= 1000).
	tail float64
	// warm: set-up ends with one untimed pass that fills caches and
	// records each op's reference answer. truth.cold is cold by design.
	warm bool
	// openLoop makes the timed phase an open loop at mixedRate, and the
	// traced run climb ladderRates first.
	openLoop bool
	// equivalent names the span of an unrolled op that does what the op
	// through the program's surface does: the whole "op", except for the
	// serve workloads, whose unrolled op performs the request five ways and
	// only the via-router leg is the request itself. Those also compute
	// their own shares (share.http, share.facade) from the five ways.
	equivalent string
	open       func(sz sizing, tmp string, exp *expectedFile) (instance, error)
}

var workloadDefs = []workloadDef{
	{name: "plan.job", clients: 2, tail: 99, warm: true, equivalent: "op",
		open: func(sz sizing, _ string, _ *expectedFile) (instance, error) { return openPlanJob(sz) }},
	{name: "exec.tpch", clients: 2, tail: 99, warm: true, equivalent: "op",
		open: func(sz sizing, _ string, _ *expectedFile) (instance, error) {
			return openExec("tpch", sz.tpchScale, 1, jobench.NoIndexes)
		}},
	{name: "exec.job", clients: 2, tail: 99, warm: true, equivalent: "op",
		open: func(sz sizing, _ string, _ *expectedFile) (instance, error) {
			return openExec("imdb-skew", sz.skewScale, sz.stride, jobench.PKFK)
		}},
	{name: "truth.cold", clients: 1, tail: 95, equivalent: "op",
		open: func(sz sizing, tmp string, exp *expectedFile) (instance, error) {
			return openTruthCold(sz, tmp, exp.Reports)
		}},
	{name: "serve.cheap", clients: 2, tail: 99, warm: true, equivalent: "router.socket",
		open: func(sz sizing, _ string, _ *expectedFile) (instance, error) {
			return openServe(sz, map[string]int{routeEstimate: 1})
		}},
	{name: "serve.mixed", clients: 2, tail: 99, warm: true, openLoop: true, equivalent: "router.socket",
		open: func(sz sizing, _ string, _ *expectedFile) (instance, error) {
			return openServe(sz, map[string]int{routeEstimate: 4, routeOptimize: 3, routeExecute: 3})
		}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// runConfig is one run's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	full    bool   // widen sampled checks to every query
	smoke   bool   // tiny worlds, no committed-value checks
	update  bool   // record this run's sums as the expected values
	outDir  string // traces, results and scratch files go here
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: what the last line of standard
// output carries, plus what identifies the run in a result file.
type runResult struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     bool                   `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
}

// gate counts what was attempted and what failed, from any goroutine.
type gate struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	notes             []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted.Add(1)
	if ok {
		return
	}
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.notes) < 20 {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// harness is the state of one run.
type harness struct {
	def  workloadDef
	cfg  runConfig
	sz   sizing
	rng  *rand.Rand
	gate gate

	inst instance
	ref  []answer // by op ID: the answer every repeat must give
	seen []bool

	rec0  *recorder // set-up, reset and finish spans of a traced run
	recs  [maxClients]*recorder
	extra map[string]float64

	setups []float64 // seconds, one per repeated set-up

	// Timed phase, passes through the program's surface: every latency in
	// ms, op count and wall time, and each pass's throughput and median.
	lat      []float64
	ops      int
	wall     time.Duration
	passRate []float64
	passP50  []float64
	liveHeap float64 // MiB in use after the timed phase, garbage collected
	// Timed phase, unrolled passes of a traced run, and — once perLayer has
	// merged the recorders — every span with the totals by name.
	passesU int
	opsU    int
	spans   []span
	totals  map[string]*layerTotals
}

// runWorkload sets the workload up, drives its timed phase, checks its
// outputs and assembles the metrics.
func runWorkload(def workloadDef, cfg runConfig, spec *specFile, exp *expectedFile) (runResult, error) {
	h := &harness{def: def, cfg: cfg, sz: fullSizing, rng: rand.New(rand.NewSource(cfg.seed)), extra: make(map[string]float64)}
	if cfg.smoke {
		h.sz = smokeSizing
		exp = &expectedFile{}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return runResult{}, err
	}
	epoch := time.Now()
	h.rec0 = newRecorder(epoch)
	for i := range h.recs {
		h.recs[i] = newRecorder(epoch)
	}

	if err := h.setUp(exp); err != nil {
		return runResult{}, fmt.Errorf("set-up: %w", err)
	}
	defer h.inst.close()
	if cfg.trace {
		if err := h.inst.traceSetup(h.rec0); err != nil {
			return runResult{}, fmt.Errorf("trace set-up: %w", err)
		}
	}

	var steps []stepResult
	seconds := cfg.seconds
	switch {
	case def.openLoop && cfg.trace:
		// The traced run spends two thirds of its time on the rate ladder
		// and the rest on one pass through the router and one unrolled.
		steps = h.openLoopPhase(ladderRates, seconds*2/3)
		seconds /= 3
	case def.openLoop:
		steps = h.openLoopPhase([]float64{mixedRate}, seconds)
	}
	if !def.openLoop || cfg.trace {
		if err := h.closedLoopPhase(seconds); err != nil {
			return runResult{}, err
		}
	}
	h.liveHeap = liveHeapMiB()
	if err := h.inst.finish(cfg.trace, h.rec0, h.extra); err != nil {
		return runResult{}, fmt.Errorf("finish: %w", err)
	}

	h.inst.verify(h.ref, cfg.full, h.rng, &h.gate)
	sums := sumAnswers(h.ref)
	switch want, ok := exp.Workloads[def.name]; {
	case cfg.update:
		exp.Workloads[def.name] = sums
	case cfg.smoke:
	default:
		h.gate.check(ok && sums == want, "sums over one pass are %+v, committed expected/seed42.json says %+v", sums, want)
	}

	res := runResult{
		Workload: def.name, Seed: cfg.seed, Trace: cfg.trace,
		Attempted: h.gate.attempted.Load(), Failed: h.gate.failed.Load(),
		Metrics: make(map[string]metricValue), Failures: h.gate.notes,
	}
	res.Correct = res.Failed == 0
	values := h.endToEnd(steps)
	list := spec.EndToEnd
	if cfg.trace {
		values = h.perLayer(steps)
		list = spec.PerLayer
		if err := h.writeTrace(); err != nil {
			return runResult{}, err
		}
	}
	for _, m := range list {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return runResult{}, fmt.Errorf("metric %q is computed but BENCHMARK.json does not declare it", name)
		}
	}
	return res, nil
}

// setUp is everything before the timed phase — generate, ANALYZE, index
// build, Open, server start, cache warm-up — done several times over so
// setup_s can be a median. The last instance is the one that gets timed.
func (h *harness) setUp(exp *expectedFile) error {
	var spent float64
	for k := 0; k < h.sz.minSetups || (k < h.sz.maxSetups && spent < h.sz.setupBudget); k++ {
		if h.inst != nil {
			if err := h.inst.close(); err != nil {
				return err
			}
			h.inst = nil // or the collection below could not free it
			runtime.GC()
		}
		t0 := time.Now()
		inst, err := h.def.open(h.sz, h.cfg.outDir, exp)
		if err != nil {
			return err
		}
		h.inst = inst
		if k == 0 {
			h.ref = make([]answer, len(inst.ops()))
			h.seen = make([]bool, len(inst.ops()))
		}
		if h.def.warm {
			list := inst.ops()
			closedPass(len(list), h.def.clients, func(c, i int) { h.perform(c, list[i], nil) })
		}
		if err := inst.reset(false, h.rec0); err != nil { // what the first pass runs on
			return err
		}
		h.setups = append(h.setups, time.Since(t0).Seconds())
		spent += h.setups[k]
	}
	return nil
}

// perform runs one op — through the program's surface, or unrolled when rec
// is set — and holds its answer against the reference: the first answer an
// op ID gives becomes the reference, and every later one must equal it.
// Within a pass an ID occurs once, so concurrent clients touch distinct
// slots.
func (h *harness) perform(client int, o op, rec *recorder) {
	var (
		ans answer
		err error
	)
	if rec == nil {
		ans, err = h.inst.do(client, o)
	} else {
		root := rec.begin("op", -1, int32(o.ID))
		ans, err = h.inst.unrolled(client, rec, root, o)
		rec.end(root, 0)
	}
	switch {
	case err != nil:
		h.gate.check(false, "%s %s: %v", o.Kind, o.Query, err)
	case !h.seen[o.ID]:
		h.ref[o.ID], h.seen[o.ID] = ans, true
		h.gate.check(true, "")
	default:
		h.gate.check(ans == h.ref[o.ID], "%s %s: answered %+v, reference is %+v (unrolled: %v)", o.Kind, o.Query, ans, h.ref[o.ID], rec != nil)
	}
}

// shuffled returns the pass's ops in this pass's seed-driven order.
func (h *harness) shuffled() []op {
	order := append([]op(nil), h.inst.ops()...)
	h.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// closedLoopPhase repeats whole passes over the op list until the timed
// wall time reaches seconds (to the nearest pass), so every run measures
// the same mix of ops and every count per pass repeats exactly. A traced
// run alternates a pass through the program's surface with an unrolled
// one; the first is the yardstick for the second.
func (h *harness) closedLoopPhase(seconds float64) error {
	var measured time.Duration
	for pass := 0; ; pass++ {
		traced := h.cfg.trace && pass%2 == 1
		if pass > 0 { // set-up already reset for the first pass
			if err := h.inst.reset(traced, h.rec0); err != nil {
				return fmt.Errorf("reset: %w", err)
			}
		}
		order := h.shuffled()
		lat := make([]float64, len(order))
		wall := closedPass(len(order), h.def.clients, func(c, i int) {
			var rec *recorder
			if traced {
				rec = h.recs[c]
			}
			t0 := time.Now()
			h.perform(c, order[i], rec)
			lat[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		})
		measured += wall
		if traced {
			h.passesU++
			h.opsU += len(order)
		} else {
			h.lat = append(h.lat, lat...)
			h.ops += len(order)
			h.wall += wall
			h.passRate = append(h.passRate, float64(len(order))/wall.Seconds())
			h.passP50 = append(h.passP50, median(lat))
		}
		if h.cfg.trace && !traced {
			continue // a traced run ends on an unrolled pass
		}
		meanPass := measured.Seconds() / float64(pass+1)
		if measured.Seconds()+meanPass/2 >= seconds {
			return nil
		}
	}
}

// stepResult is one rate step of the open loop.
type stepResult struct {
	rate      float64
	n         int
	wall      time.Duration
	p50, tail float64 // ms, from the time each request was due
	late      float64 // share sent more than lateSlack after due
	overLimit float64 // share with latency above latencyLimit
}

func (s stepResult) met() bool {
	return s.tail <= float64(latencyLimit/time.Millisecond) && s.late <= maxLateShare
}

// openLoopPhase sends the weighted mix at each fixed rate for an equal share
// of seconds. The schedule is fixed before the step starts and does not
// react to the program.
func (h *harness) openLoopPhase(rates []float64, seconds float64) []stepResult {
	var mix []op
	for _, o := range h.inst.ops() {
		for range o.Weight {
			mix = append(mix, o)
		}
	}
	var stream []op // whole shuffled copies of the mix, consumed across steps
	var steps []stepResult
	for _, rate := range rates {
		n := max(int(rate*seconds/float64(len(rates))), 1)
		for len(stream) < n {
			h.rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
			stream = append(stream, mix...)
		}
		reqs := stream[:n]
		stream = stream[n:]
		clk := wallClock{epoch: time.Now()}
		samples := openLoop(clk, uniformSchedule(n, rate), openConns, func(w, i int) { h.perform(w, reqs[i], nil) })
		st := stepResult{rate: rate, n: n, wall: clk.Now(), late: lateShare(samples, lateSlack)}
		lat := make([]float64, n)
		over := 0
		for i, s := range samples {
			lat[i] = float64(s.Latency) / float64(time.Millisecond)
			if s.Latency > latencyLimit {
				over++
			}
		}
		sort.Float64s(lat)
		st.p50, st.tail = percentile(lat, 50), percentile(lat, h.def.tail)
		st.overLimit = float64(over) / float64(n)
		fmt.Fprintf(os.Stderr, "open loop: %g req/s, n=%d: p50 %.3f ms, p%g %.3f ms, late %.4f, over limit %.4f, met %v\n",
			rate, n, st.p50, h.def.tail, st.tail, st.late, st.overLimit, st.met())
		steps = append(steps, st)
		h.ops += n
		h.wall += st.wall
	}
	return steps
}

// endToEnd computes the metrics a user of the system would see, from the
// untraced passes only. A closed loop's throughput and median latency are
// medians over its passes — every pass is the same list of ops, so a pass
// that a noisy neighbour slowed is an outlier, not a shift of the run's
// number; the tail needs every sample and is read from all passes pooled.
func (h *harness) endToEnd(steps []stepResult) map[string]float64 {
	v := map[string]float64{"setup_s": median(h.setups), "live_heap_mb": h.liveHeap}
	if steps != nil {
		mid := steps[len(steps)/2]
		v["ops_per_s"] = float64(h.ops) / h.wall.Seconds()
		v["p50_ms"], v["tail_ms"] = mid.p50, mid.tail
		return v
	}
	v["ops_per_s"], v["p50_ms"] = median(h.passRate), median(h.passP50)
	tails := h.blockTails()
	v["tail_ms"] = median(tails)
	fmt.Fprintf(os.Stderr, "closed loop: %d passes, %d ops in %.3f s: p%g is the median over %d blocks of >= %d samples\n",
		len(h.passRate), h.ops, h.wall.Seconds(), h.def.tail, len(tails), len(h.lat)/len(tails))
	return v
}

// blockTails cuts the timed passes into blocks of whole passes, each with
// enough samples for the workload's tail percentile to have ten samples
// beyond it, and returns every block's tail. Whole passes keep each block's
// mix of ops the same. With too few passes for two blocks there is one.
func (h *harness) blockTails() []float64 {
	passOps := len(h.inst.ops())
	perBlock := 1 // passes
	for samplesBeyond(perBlock*passOps, h.def.tail) < 10 {
		perBlock++
	}
	blocks := max(len(h.passRate)/perBlock, 1)
	tails := make([]float64, blocks)
	for b := range blocks {
		lo, hi := b*perBlock*passOps, (b+1)*perBlock*passOps
		if b == blocks-1 {
			hi = len(h.lat) // the last block takes the passes left over
		}
		tails[b] = percentile(sortedCopy(h.lat[lo:hi]), h.def.tail)
	}
	return tails
}

// perLayer turns the traced run's spans into the per-layer metrics. Busy
// times and counts are per unrolled pass, so they do not depend on how many
// passes fitted into the run.
func (h *harness) perLayer(steps []stepResult) map[string]float64 {
	v := make(map[string]float64)
	for k, x := range h.extra {
		v[k] = x
	}
	h.spans = mergeSpans(append([]*recorder{h.rec0}, h.recs[:]...))
	h.totals = selfTimes(h.spans)
	totals := h.totals
	get := func(name string) layerTotals {
		if t := totals[name]; t != nil {
			return *t
		}
		return layerTotals{}
	}
	passes := float64(max(h.passesU, 1))
	perPassMS := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += get(n).Total
		}
		return float64(ns) / 1e6 / passes
	}
	meanUS := func(name string) float64 {
		t := get(name)
		if t.Spans == 0 {
			return 0
		}
		return float64(t.Total) / 1e3 / float64(t.Spans)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["query.parse_us"], v["query.graph_us"] = meanUS("query.parse"), meanUS("query.graph")
	v["workload.generate_ms"] = float64(get("workload.generate").Total) / 1e6
	v["stats.analyze_ms"] = float64(get("stats.analyze").Total) / 1e6
	v["index.build_ms"] = float64(get("index.build").Total) / 1e6

	v["cardest.calls"] = float64(get("cardest.card").N) / passes
	v["cardest.busy_ms"] = perPassMS("cardest.card", "cardest.provider")
	v["costmodel.calls"] = float64(get("costmodel.cost").N) / passes
	v["costmodel.busy_ms"] = perPassMS("costmodel.cost")
	v["enum.self_ms"] = float64(get("enum.dp").Self) / 1e6 / passes

	run := get("engine.run")
	var rows int64
	for _, r := range h.recs {
		rows += r.counts["engine.rows"]
	}
	v["engine.run_ms"] = perPassMS("engine.run")
	v["engine.work_units"] = float64(run.N) / passes
	v["engine.rows"] = float64(rows) / passes
	v["engine.ns_per_work_unit"] = ratio(float64(run.Total), float64(run.N))

	tc := get("truecard.compute")
	v["truecard.compute_ms"] = perPassMS("truecard.compute")
	v["truecard.subgraphs"] = float64(tc.N) / passes
	v["truecard.subgraphs_per_s"] = ratio(float64(tc.N), float64(tc.Total)/1e9)
	for _, kind := range []string{"db", "stats", "indexes", "truth"} {
		v["snapshot."+kind+".save_ms"] = perPassMS("snapshot." + kind + ".save")
		v["snapshot."+kind+".load_ms"] = float64(get("snapshot."+kind+".load").Total) / 1e6
	}

	// Shares of the unrolled op's time.
	if h.def.equivalent == "op" {
		opTotal := float64(get("op").Total)
		optimizer := get("enum.dp").Total + get("cardest.provider").Total // the DP's span contains its calls into cardest and costmodel
		v["share.optimizer"] = ratio(float64(optimizer), opTotal)
		v["share.engine"] = ratio(float64(run.Total), opTotal)
		v["share.truecard"] = ratio(float64(tc.Total), opTotal)
		v["share.snapshot"] = ratio(float64(get("snapshot.truth.save").Total), opTotal)
	}

	if n := len(h.lat); n > 0 && get(h.def.equivalent).Spans > 0 {
		var sum float64
		for _, x := range h.lat {
			sum += x
		}
		v["trace_overhead_share"] = meanUS(h.def.equivalent)/1e3/(sum/float64(n)) - 1
	}
	v["trace.unrolled_ops"] = float64(h.opsU)

	for i, s := range steps {
		v[fmt.Sprintf("rate_step%d.tail_ms", i+1)] = s.tail
		v["late_share"] = max(v["late_share"], s.late)
		v["limit_miss_share"] = max(v["limit_miss_share"], s.overLimit)
		if s.met() {
			v["max_rate_ok"] = max(v["max_rate_ok"], s.rate)
		}
	}
	v["peak_rss_mb"] = peakRSSMiB()
	v["fail_share"] = ratio(float64(h.gate.failed.Load()), float64(h.gate.attempted.Load()))
	v["tail_percentile"] = h.def.tail
	return v
}

// writeTrace, called after perLayer, writes the spans kept in memory to
// out/trace-<workload>.json:
// the totals by span name, and the spans themselves up to a cap that keeps
// the file readable (the totals always cover every span).
func (h *harness) writeTrace() error {
	const maxSpans = 20000
	spans := h.spans
	doc := struct {
		Workload   string                  `json:"workload"`
		Seed       int64                   `json:"seed"`
		Passes     int                     `json:"unrolled_passes"`
		Layers     map[string]*layerTotals `json:"layers"`
		SpansTotal int                     `json:"spans_total"`
		Spans      []span                  `json:"spans"`
	}{h.def.name, h.cfg.seed, h.passesU, h.totals, len(spans), spans[:min(len(spans), maxSpans)]}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.cfg.outDir, "trace-"+h.def.name+".json"), data, 0o644)
}

// sumAnswers adds up one pass's reference answers: the numbers
// expected/seed42.json pins.
func sumAnswers(ref []answer) expectedSums {
	s := expectedSums{Ops: len(ref)}
	for _, a := range ref {
		s.Rows += a.Rows
		s.Work += a.Work
		s.Subgraphs += a.Subgraphs
		s.Cost += a.Cost
		s.Card += a.Card
		s.Plans += a.Plan
	}
	return s
}

// liveHeapMiB is the heap still in use after a full collection: what the
// warmed program retains — worlds, indexes, caches — without the garbage
// whose amount depends on where in its cycle the collector happens to be.
// Two collections, because sync.Pool hands its contents to a victim cache
// on the first and drops them on the second.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
