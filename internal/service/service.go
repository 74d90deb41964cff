// Package service is the benchmark-as-a-service layer: an HTTP/JSON server
// that keeps warm worlds resident in an LRU pool and serves the facade
// surface (optimize, execute, estimate, workload listing) plus every paper
// experiment concurrently. Cold worlds are opened under single-flight — a
// thundering herd of requests for one (workload, seed, scale) performs
// exactly one Open — and deterministic experiment reports are memoized in
// a second LRU of the same type. The ops surface is /healthz,
// /metrics (Prometheus text format), and graceful shutdown: cancelling the
// serve context stops the listener, lets in-flight requests finish within
// ShutdownGrace, and then cancels what is still running, true-cardinality
// and experiment work included.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"jobench"
	"jobench/internal/experiments"
	"jobench/internal/fault"
	"jobench/internal/parallel"
	"jobench/internal/plan"
	"jobench/internal/serving"
	"jobench/internal/trace"
	"jobench/internal/workload"
)

// Config configures a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (":8080").
	Addr string
	// DefaultWorkload, DefaultSeed and DefaultScale apply when a request
	// omits them, mirroring the CLI's -workload/-seed/-scale defaults.
	DefaultWorkload string
	DefaultSeed     int64
	DefaultScale    float64
	// Parallel sizes the worker pools of every resident instance
	// (0 = GOMAXPROCS).
	Parallel int
	// CacheDir is the snapshot store every pool miss loads from. Empty
	// disables snapshot caching (cold opens regenerate).
	CacheDir string
	// PoolSize bounds the resident instances; the least recently used is
	// evicted beyond it (default 2).
	PoolSize int
	// ReportCapacity is the admission-control budget for concurrent
	// experiment computations, in weight units: full workload sweeps weigh
	// 2, estimation sweeps and ablations 1. A burst of distinct uncached
	// reports queues FIFO for these units instead of oversubscribing the
	// box (default 4 — at most two heavy grids at once).
	ReportCapacity int
	// ShutdownGrace bounds how long a cancelled server lets in-flight
	// requests run undisturbed before cancelling the stragglers (default
	// 5s).
	ShutdownGrace time.Duration
	// ReplicaID labels this replica in /metrics (jobench_replica_info) so
	// scraped series from a fleet are tellable apart; empty omits the
	// metric.
	ReplicaID string
	// SlowQuery logs a span summary for every request at least this slow
	// (0 disables outlier logging).
	SlowQuery time.Duration
	// MaxQueue bounds how many report computations may wait for admission
	// units at once; a request beyond the cap is shed immediately with
	// 429 + Retry-After instead of joining an unbounded line (non-positive
	// selects the default of 16).
	MaxQueue int
	// Fault, when non-nil, wraps the handler in the chaos fault injector
	// (-fault-spec). nil — the production default — adds nothing to the
	// request path.
	Fault *fault.Injector
	// Logger receives serve-loop and snapshot diagnostics (default
	// slog.Default()). Request-scoped lines carry trace_id, workload and
	// route attrs.
	Logger *slog.Logger
}

// Server is the benchmark service.
type Server struct {
	cfg     Config
	pool    *Pool
	metrics *Metrics
	mux     *serving.Mux

	reports      *lru[reportKey, string]
	reportFlight parallel.Flight[reportKey, string]
	admit        *admission
}

// New builds a Server (without binding a socket).
func New(cfg Config) *Server {
	if cfg.DefaultScale <= 0 {
		cfg.DefaultScale = 1
	}
	if cfg.DefaultSeed == 0 {
		cfg.DefaultSeed = 42
	}
	if cfg.DefaultWorkload == "" {
		cfg.DefaultWorkload = workload.DefaultName
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 5 * time.Second
	}
	if cfg.ReportCapacity <= 0 {
		cfg.ReportCapacity = 4
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg, m),
		metrics: m,
		mux: &serving.Mux{
			Traces: trace.NewStore(trace.DefaultStoreCapacity),
			Slow:   cfg.SlowQuery, Logger: cfg.Logger,
			Panics: &m.Panics, Observe: m.Observe,
		},
		reports: newLRU[reportKey, string](reportCacheCap, nil),
		admit:   newAdmission(int64(cfg.ReportCapacity), cfg.MaxQueue),
	}
	m.admission = s.admit
	m.replicaID = cfg.ReplicaID
	if cfg.Fault != nil {
		m.faultStats = cfg.Fault.Stats
	}
	s.mux.Handle("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.handleMetrics)
	s.mux.Handle("POST /v1/optimize", s.handleOptimize)
	s.mux.Handle("POST /v1/execute", s.handleExecute)
	s.mux.Handle("POST /v1/explain", s.handleExplain)
	s.mux.Handle("POST /v1/estimate", s.handleEstimate)
	s.mux.Handle("GET /v1/queries", s.handleQueries)
	s.mux.Handle("GET /v1/experiment/{name}", s.handleExperiment)
	s.mux.Handle("GET /v1/traces", s.mux.ServeTraces)
	return s
}

// Traces exposes the server's trace ring (for tests and embedding).
func (s *Server) Traces() *trace.Store { return s.mux.Traces }

// Handler returns the service's HTTP handler (also useful under
// httptest). When cfg.Fault is set the mux is wrapped in the chaos
// injector — outermost, so an injected connection reset or crash hits
// even /healthz, and an injected panic (http.ErrAbortHandler) bypasses
// the per-route panic recovery exactly like a real transport failure.
func (s *Server) Handler() http.Handler { return s.cfg.Fault.Wrap(s.mux) }

// Metrics exposes the server's counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled; see
// Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	return serving.ListenAndServe(ctx, s.cfg.Addr, s.Serve, s.cfg.Logger,
		"pool", s.pool.entries.cap, "cache_dir", s.cfg.CacheDir)
}

// Serve runs the server on an existing listener until ctx is cancelled,
// then drains as serving.Serve describes; report computations are
// cancelled with the stragglers.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return serving.Serve(ctx, ln, s.Handler(), s.cfg.ShutdownGrace, s.cfg.Logger)
}

// --- request plumbing -------------------------------------------------------

func (s *Server) key(wl string, seed int64, scale float64) workload.Key {
	if wl == "" {
		wl = s.cfg.DefaultWorkload
	}
	if seed == 0 {
		seed = s.cfg.DefaultSeed
	}
	// The NaN guard backs up queryWorld for any path that builds a key
	// from a float it did not parse itself (JSON cannot encode NaN, but
	// the key must be safe regardless of who calls this).
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		scale = s.cfg.DefaultScale
	}
	return workload.NewKey(wl, seed, scale)
}

// system resolves the resident System for a request's world under a
// "pool.lookup" span (covering both the single-flight wait and, for the
// initiating request, the cold open inside it).
func (s *Server) system(ctx context.Context, wl string, seed int64, scale float64) (*jobench.System, error) {
	k := s.key(wl, seed, scale)
	sp := trace.StartSpan(ctx, "pool.lookup")
	sys, err := s.pool.System(ctx, k)
	sp.End(trace.String("key", k.String()))
	return sys, err
}

func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// statusOf maps a pipeline error onto an HTTP status: unknown names are
// client errors (404 for queries/experiments, 400 for knob vocabulary),
// an exceeded deadline is 504 (the end-to-end deadline ran out mid-work —
// the router reports its own expiry the same way), cancellation means the
// server is going away or the client left (503), a shed admission queue
// is 429, anything else is a 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests
	case strings.Contains(err.Error(), "unknown query"),
		strings.Contains(err.Error(), "unknown experiment"):
		return http.StatusNotFound
	case strings.Contains(err.Error(), "unknown"):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// planOptions translates a PlanRequest's knob strings (CLI vocabulary)
// into jobench.PlanOptions.
func planOptions(req PlanRequest) (jobench.PlanOptions, error) {
	disableNLJ := true
	if req.DisableNestedLoops != nil {
		disableNLJ = *req.DisableNestedLoops
	}
	opts, err := jobench.MakePlanOptions(req.Estimator, req.CostModel, req.Indexes,
		disableNLJ, req.Shape, req.Algorithm)
	if err != nil {
		return opts, err
	}
	opts.Seed = req.PlanSeed
	return opts, nil
}

// runOptions translates an ExecuteRequest's knobs into jobench.RunOptions;
// an omitted rehash means true, the CLI's default.
func runOptions(req ExecuteRequest) (jobench.RunOptions, error) {
	opts, err := planOptions(req.PlanRequest)
	return jobench.RunOptions{
		PlanOptions: opts, Rehash: req.Rehash == nil || *req.Rehash, WorkLimit: req.WorkLimit,
	}, err
}

// --- handlers ---------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) (int, error) {
	return serving.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) (int, error) {
	var e serving.Exposition
	s.metrics.Render(&e)
	return e.Serve(w)
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) (int, error) {
	var req PlanRequest
	if err := decodeJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	opts, err := planOptions(req)
	if err != nil {
		return http.StatusBadRequest, err
	}
	sys, err := s.system(r.Context(), req.Workload, req.Seed, req.Scale)
	if err != nil {
		return statusOf(err), err
	}
	// The request context flows into the facade so a disconnect or
	// shutdown aborts an on-demand truth computation (estimator "true").
	plan, cost, err := sys.OptimizeContext(r.Context(), req.Query, opts)
	if err != nil {
		return statusOf(err), err
	}
	return serving.WriteJSON(w, http.StatusOK, OptimizeResponse{
		Workload: sys.Workload(), Query: req.Query, Plan: plan, Cost: cost,
	})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) (int, error) {
	var req ExecuteRequest
	if err := decodeJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	run, err := runOptions(req)
	if err != nil {
		return http.StatusBadRequest, err
	}
	sys, err := s.system(r.Context(), req.Workload, req.Seed, req.Scale)
	if err != nil {
		return statusOf(err), err
	}
	if req.Adaptive {
		res, err := sys.ExecuteAdaptive(r.Context(), req.Query, jobench.AdaptiveOptions{
			RunOptions:    run,
			QErrThreshold: req.QErrThreshold,
			MaxReplans:    req.MaxReplans,
		})
		if err != nil {
			return statusOf(err), err
		}
		s.metrics.Replans.Add(int64(res.Replans))
		return serving.WriteJSON(w, http.StatusOK, ExecuteResponse{
			Workload: sys.Workload(), Query: req.Query, Rows: res.Rows, Work: res.Work,
			TimedOut: res.TimedOut, Plan: res.Plan,
			Replans: &res.Replans,
		})
	}
	res, err := sys.ExecuteContext(r.Context(), req.Query, run)
	if err != nil {
		return statusOf(err), err
	}
	return serving.WriteJSON(w, http.StatusOK, ExecuteResponse{
		Workload: sys.Workload(), Query: req.Query, Rows: res.Rows, Work: res.Work,
		TimedOut: res.TimedOut, Plan: res.Plan,
	})
}

// explainNodes maps the facade's analyzed operators onto the wire type.
func explainNodes(nodes []plan.AnalyzedNode) []ExplainNode {
	out := make([]ExplainNode, len(nodes))
	for i, n := range nodes {
		out[i] = ExplainNode{
			ID: n.ID, Depth: n.Depth, Op: n.Op, Cond: n.Cond,
			EstRows: n.EstRows, Probed: n.Probed,
			WorkUnits: n.WorkUnits,
			WallMS:    float64(n.WallNanos) / float64(time.Millisecond),
		}
		if !n.Probed {
			out[i].ActualRows, out[i].QError = &n.ActualRows, &n.QError
		}
	}
	return out
}

// handleExplain is EXPLAIN ANALYZE as its own endpoint: execute with
// per-operator stats collection and return estimates vs actuals per node.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) (int, error) {
	var req ExecuteRequest
	if err := decodeJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	if req.Adaptive {
		return http.StatusBadRequest, errors.New("explain analyze cannot be combined with adaptive")
	}
	run, err := runOptions(req)
	if err != nil {
		return http.StatusBadRequest, err
	}
	sys, err := s.system(r.Context(), req.Workload, req.Seed, req.Scale)
	if err != nil {
		return statusOf(err), err
	}
	res, err := sys.ExplainAnalyze(r.Context(), req.Query, run)
	if err != nil {
		return statusOf(err), err
	}
	return serving.WriteJSON(w, http.StatusOK, ExplainResponse{
		Workload: sys.Workload(), Query: req.Query,
		Text: res.Text, Nodes: explainNodes(res.Nodes),
		Rows: res.Rows, Work: res.Work, TimedOut: res.TimedOut,
	})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) (int, error) {
	var req EstimateRequest
	if err := decodeJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	sys, err := s.system(r.Context(), req.Workload, req.Seed, req.Scale)
	if err != nil {
		return statusOf(err), err
	}
	estimator := req.Estimator
	if estimator == "" {
		estimator = jobench.EstPostgres
	}
	card, err := sys.EstimateCardinalityContext(r.Context(), req.Query, estimator)
	if err != nil {
		return statusOf(err), err
	}
	return serving.WriteJSON(w, http.StatusOK, EstimateResponse{
		Workload: sys.Workload(), Query: req.Query, Estimator: estimator, Cardinality: card,
	})
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) (int, error) {
	wl, seed, scale, err := queryWorld(r)
	if err != nil {
		return http.StatusBadRequest, err
	}
	sys, err := s.system(r.Context(), wl, seed, scale)
	if err != nil {
		return statusOf(err), err
	}
	ids := sys.QueryIDs()
	return serving.WriteJSON(w, http.StatusOK, QueriesResponse{
		Workload: sys.Workload(), Count: len(ids), Queries: ids,
	})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.PathValue("name")
	// Validate the name before anything expensive: a miss must cost a
	// slice scan, not the construction of an entire Lab.
	if !slices.Contains(experiments.Names(), name) {
		return http.StatusNotFound, fmt.Errorf("unknown experiment %q (%s)",
			name, strings.Join(experiments.Names(), "|"))
	}
	wl, seed, scale, err := queryWorld(r)
	if err != nil {
		return http.StatusBadRequest, err
	}
	samples := 0
	if v := r.URL.Query().Get("samples"); v != "" {
		samples, err = strconv.Atoi(v)
		if err != nil || samples < 0 || samples > maxSamples {
			return http.StatusBadRequest, fmt.Errorf("invalid samples %q (want 0..%d)", v, maxSamples)
		}
	}
	key := s.key(wl, seed, scale)
	text, err := s.report(r.Context(), reportKey{key: key, name: name, samples: normalizeSamples(name, samples)})
	if err != nil {
		if errors.Is(err, errShed) {
			// The queue already holds several service times' worth of
			// work; a fixed coarse hint beats pretending to know better.
			w.Header().Set("Retry-After", "5")
			trace.Annotate(r.Context(), "shed")
		}
		return statusOf(err), err
	}
	// format=json wraps the report with the resolved world so clients (and
	// the smoke tests) can assert which workload produced it; the default
	// stays the raw text rendering, byte-identical to the CLI.
	if r.URL.Query().Get("format") == "json" {
		return serving.WriteJSON(w, http.StatusOK, ExperimentResponse{
			Experiment: name,
			Workload:   key.Workload,
			Seed:       key.Seed,
			Scale:      key.Scale,
			Report:     text,
		})
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(text))
	return http.StatusOK, nil
}

// maxSamples caps /v1/experiment's samples parameter at ten times fig9's
// default. The sweep runs detached under the request root and holds its
// admission units until it finishes, so an unbounded count would let one
// request occupy them until shutdown.
const maxSamples = 10 * experiments.DefaultSamples

// normalizeSamples canonicalizes the samples parameter before it becomes
// part of a report cache key: only fig9 consumes it, and fig9 treats 0 as
// its default — without this, distinct samples values would redundantly
// recompute (and separately cache) byte-identical reports.
func normalizeSamples(name string, samples int) int {
	if name != "fig9" {
		return 0
	}
	if samples == 0 {
		return experiments.DefaultSamples
	}
	return samples
}

func queryWorld(r *http.Request) (wl string, seed int64, scale float64, err error) {
	q := r.URL.Query()
	wl = q.Get("workload")
	if v := q.Get("seed"); v != "" {
		seed, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			return "", 0, 0, fmt.Errorf("invalid seed %q", v)
		}
	}
	if v := q.Get("scale"); v != "" {
		scale, err = strconv.ParseFloat(v, 64)
		// NaN and ±Inf parse successfully but must never become part of a
		// pool key: NaN != NaN makes such a key undeletable from every map
		// it enters (the flight group, the LRU), a permanent leak.
		if err != nil || math.IsNaN(scale) || math.IsInf(scale, 0) {
			return "", 0, 0, fmt.Errorf("invalid scale %q", v)
		}
	}
	return wl, seed, scale, nil
}

// --- report cache -----------------------------------------------------------

// reportKey addresses one memoized experiment report. Everything an
// experiment's output depends on is in here: the world (pool key), the
// experiment name, and its parameters — the drivers are deterministic in
// exactly these inputs (reports are byte-identical at any worker count by
// the runner's order-preserving contract).
type reportKey struct {
	key     workload.Key
	name    string
	samples int
}

// reportCacheCap bounds the memoized reports. Keys embed client-supplied
// (seed, scale), so without a cap a client iterating seeds would grow the
// cache without limit; beyond the cap the least recently used report is
// dropped (recomputable at the cost of one sweep).
const reportCacheCap = 128

// report returns the memoized rendering of one experiment, computing it
// under single-flight on a miss. The computation runs detached under the
// request root (serving.Root), not the triggering request's context:
// concurrent waiters share the flight, so one client's disconnect or
// expired deadline must not cancel work the others (and the cache) still
// want — while shutdown still aborts it. The requester's own wait IS bounded by
// its context (DoContext): a deadline-carrying request gets its 504 on
// time even though the sweep keeps running for the cache. The initiator's
// trace still records the admission-wait and experiment spans — trace
// recording is straggler-safe by design.
//
// Only successful renders are cached, so a cancelled or failed run never
// poisons the cache.
func (s *Server) report(ctx context.Context, k reportKey) (string, error) {
	if text, ok := s.reports.get(k); ok {
		s.metrics.ReportObserve(k.key.Workload, true)
		return text, nil
	}
	s.metrics.ReportObserve(k.key.Workload, false)
	// The computation context: the request root for cancellation, the
	// requester's trace for observability.
	root := serving.Root(ctx)
	cctx := root
	if tr := trace.FromContext(ctx); tr != nil {
		cctx = trace.NewContext(cctx, tr)
	}
	text, err, _ := s.reportFlight.DoContext(ctx, k, func() (string, error) {
		if text, ok := s.reports.get(k); ok {
			return text, nil
		}
		// Admission control: only the goroutine that actually computes
		// acquires (cache hits and flight waiters never queue), under the
		// request root so shutdown unblocks the queue. A full waiter queue
		// sheds immediately (errShed → 429) instead of joining an
		// unbounded line.
		weight := experimentWeight(k.name)
		asp := trace.StartSpan(cctx, "admission.wait")
		err := s.admit.acquire(root, weight)
		asp.End(trace.Int64("weight", int64(weight)))
		if err != nil {
			return "", err
		}
		defer s.admit.release(weight)
		lab, err := s.pool.Lab(cctx, k.key)
		if err != nil {
			return "", err
		}
		esp := trace.StartSpan(cctx, "experiment.run")
		text, err := experiments.RunExperiment(root, lab, k.name, experiments.Params{Samples: k.samples})
		esp.End(trace.String("experiment", k.name))
		if err != nil {
			return "", err
		}
		s.reports.put(k, text)
		return text, nil
	})
	return text, err
}
