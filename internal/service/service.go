// Package service is the benchmark-as-a-service layer: an HTTP/JSON server
// that keeps warm jobench.System instances resident in an LRU pool and
// serves the facade surface (optimize, execute, estimate, workload
// listing) plus every paper experiment concurrently. Cold instances are
// built under single-flight — a thundering herd of requests for one
// (seed, scale) performs exactly one Open — and deterministic experiment
// reports are memoized in a report cache. The ops surface is /healthz,
// /metrics (Prometheus text format), and graceful shutdown: cancelling the
// serve context stops the listener and propagates cancellation into
// in-flight true-cardinality and experiment work.
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
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"jobench"
	"jobench/internal/deadline"
	"jobench/internal/experiments"
	"jobench/internal/fault"
	"jobench/internal/parallel"
	"jobench/internal/plan"
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
	// CacheDir is the shared snapshot store; it becomes part of every pool
	// key. Empty disables snapshot caching (cold opens regenerate).
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
	// ShutdownGrace bounds how long a cancelled server waits for in-flight
	// requests to notice the cancellation and flush (default 5s).
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

func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

// logf adapts the structured logger to the printf-style Logf funcs the
// snapshot store and the facade take, so their signatures don't churn.
func (c Config) logf() func(format string, args ...any) {
	lg := c.logger()
	return func(format string, args ...any) {
		lg.Info(fmt.Sprintf(format, args...))
	}
}

// Server is the benchmark service.
type Server struct {
	cfg     Config
	pool    *Pool
	metrics *Metrics
	mux     *http.ServeMux

	// baseCtx is the Serve context: the lifetime of the server itself.
	// Shared computations (report flights) run under it rather than under
	// the first requester's context, so one client's disconnect cannot
	// cancel work other waiters are sharing. Set once in Serve, before any
	// request can arrive.
	baseCtx context.Context

	reports      *reportCache
	reportFlight parallel.Flight[reportKey, string]
	admit        *admission
	traces       *trace.Store
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
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg, m),
		metrics: m,
		mux:     http.NewServeMux(),
		reports: newReportCache(),
		admit:   newAdmission(int64(cfg.ReportCapacity), cfg.MaxQueue),
		traces:  trace.NewStore(trace.DefaultStoreCapacity),
	}
	m.admission = s.admit
	m.replicaID = cfg.ReplicaID
	if cfg.Fault != nil {
		m.faultStats = cfg.Fault.Stats
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("POST /v1/optimize", s.handleOptimize)
	s.route("POST /v1/execute", s.handleExecute)
	s.route("POST /v1/explain", s.handleExplain)
	s.route("POST /v1/estimate", s.handleEstimate)
	s.route("GET /v1/queries", s.handleQueries)
	s.route("GET /v1/experiment/{name}", s.handleExperiment)
	s.route("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) (int, error) { return s.traces.Serve(w, r), nil })
	return s
}

// Traces exposes the server's trace ring (for tests and embedding).
func (s *Server) Traces() *trace.Store { return s.traces }

// untraced lists the routes that never open a trace: the ops surface and
// the trace endpoint itself would otherwise fill the ring with noise.
func untraced(route string) bool {
	switch route {
	case "/healthz", "/metrics", "/v1/traces":
		return true
	}
	return false
}

// Handler returns the service's HTTP handler (also useful under
// httptest). When cfg.Fault is set the mux is wrapped in the chaos
// injector — outermost, so an injected connection reset or crash hits
// even /healthz, and an injected panic (http.ErrAbortHandler) bypasses
// the per-route panic recovery exactly like a real transport failure.
func (s *Server) Handler() http.Handler { return s.cfg.Fault.Wrap(s.mux) }

// Metrics exposes the server's counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// route registers a handler wrapped in the metrics and tracing
// middleware. pattern is a Go 1.22 mux pattern ("METHOD /path"); its path
// part labels the metrics and the trace's route. Every traced request
// gets a trace — continuing the X-Jobench-Trace ID the router propagated,
// or minting a fresh one — attached to the request
// context, echoed in the response header, and added to the ring on
// completion; requests slower than cfg.SlowQuery log a span summary.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (status int, err error)

func (s *Server) route(pattern string, h handlerFunc) {
	label := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		label = pattern[i+1:]
	}
	traced := !untraced(label)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var tr *trace.Trace
		if traced {
			tr, r = trace.Begin(w, r, label)
		}
		// End-to-end deadline: an X-Jobench-Deadline header (minted by the
		// router from -request-timeout, or sent by the client directly)
		// becomes the request context's deadline, which every downstream
		// stage — pool lookup, admission wait, truecard DP, reopt probes,
		// engine execution — already honors. An absolute deadline means
		// upstream queueing and retries consumed budget instead of
		// resetting it.
		if dl, ok := deadline.FromRequest(r); ok {
			ctx, cancel := context.WithDeadline(r.Context(), dl)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		status, err := s.recovered(sw, r, h, label, tr)
		if err != nil {
			writeError(sw, status, err)
		}
		s.metrics.Observe(label, status, time.Since(start))
		if tr != nil {
			s.traces.Finish(tr, s.cfg.SlowQuery, s.cfg.logger(), "status", status)
		}
	})
}

// statusWriter remembers whether the handler has started writing a
// response, so panic recovery knows whether a 500 can still be sent or
// the connection is beyond saving.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// recovered runs h with panic recovery: a handler panic becomes a 500
// (with the trace ID in the body and a logged stack) instead of tearing
// down the whole replica's connection. http.ErrAbortHandler re-panics —
// it is net/http's sanctioned "sever this connection" and must reach the
// server loop.
func (s *Server) recovered(w *statusWriter, r *http.Request, h handlerFunc, label string, tr *trace.Trace) (status int, err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.metrics.Panics.Add(1)
		traceID := ""
		if tr != nil {
			traceID = tr.ID().String()
		}
		s.cfg.logger().Error("handler panic recovered",
			"route", label,
			"trace_id", traceID,
			"panic", fmt.Sprint(p),
			"stack", string(debug.Stack()))
		status = http.StatusInternalServerError
		err = nil
		if !w.wrote {
			writeError(w, status, fmt.Errorf("internal error (trace %s)", traceID))
		}
	}()
	return h(w, r)
}

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// shuts down gracefully: the listener closes, every in-flight request sees
// its context cancelled (requests inherit ctx), and the server waits up to
// cfg.ShutdownGrace for handlers to flush before returning.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.cfg.logf()("jobench serve: listening on %s (pool %d, cache-dir %q)",
		ln.Addr(), s.pool.entries.cap, s.cfg.CacheDir)
	return s.Serve(ctx, ln)
}

// Serve runs the server on an existing listener; see ListenAndServe.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.baseCtx = ctx
	srv := &http.Server{
		Handler: s.Handler(),
		// Every request context derives from ctx, which is how shutdown
		// cancellation reaches in-flight truecard DPs and experiment
		// sweeps.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.cfg.logf()("jobench serve: shutting down (%v)", context.Cause(ctx))
		shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		<-errc // Serve has returned http.ErrServerClosed
		return err
	}
}

// --- request plumbing -------------------------------------------------------

// serverCtx returns the server's lifetime context (Background under
// httptest, where Serve never ran).
func (s *Server) serverCtx() context.Context {
	if s.baseCtx != nil {
		return s.baseCtx
	}
	return context.Background()
}

func (s *Server) key(wl string, seed int64, scale float64) Key {
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
	return Key{World: workload.NewKey(wl, seed, scale), CacheDir: s.cfg.CacheDir}
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
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

// --- handlers ---------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) (int, error) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return http.StatusOK, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) (int, error) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.metrics.Render()))
	return http.StatusOK, nil
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
	writeJSON(w, http.StatusOK, OptimizeResponse{
		Workload: sys.Workload(), Query: req.Query, Plan: plan, Cost: cost,
	})
	return http.StatusOK, nil
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) (int, error) {
	var req ExecuteRequest
	if err := decodeJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	opts, err := planOptions(req.PlanRequest)
	if err != nil {
		return http.StatusBadRequest, err
	}
	rehash := true
	if req.Rehash != nil {
		rehash = *req.Rehash
	}
	if req.Explain != "" && req.Explain != "analyze" {
		return http.StatusBadRequest, fmt.Errorf("unknown explain mode %q (want \"analyze\")", req.Explain)
	}
	if req.Explain == "analyze" && req.Adaptive {
		return http.StatusBadRequest, errors.New("explain=analyze cannot be combined with adaptive")
	}
	sys, err := s.system(r.Context(), req.Workload, req.Seed, req.Scale)
	if err != nil {
		return statusOf(err), err
	}
	if req.Explain == "analyze" {
		res, err := sys.ExplainAnalyzeContext(r.Context(), req.Query, jobench.RunOptions{
			PlanOptions: opts, Rehash: rehash, WorkLimit: req.WorkLimit,
		})
		if err != nil {
			return statusOf(err), err
		}
		writeJSON(w, http.StatusOK, ExecuteResponse{
			Workload: sys.Workload(), Query: req.Query, Rows: res.Rows, Work: res.Work,
			TimedOut: res.TimedOut,
			Analyze:  res.Text, Nodes: explainNodes(res.Nodes),
		})
		return http.StatusOK, nil
	}
	if req.Adaptive {
		res, err := sys.ExecuteAdaptiveContext(r.Context(), req.Query, jobench.AdaptiveOptions{
			RunOptions:    jobench.RunOptions{PlanOptions: opts, Rehash: rehash, WorkLimit: req.WorkLimit},
			QErrThreshold: req.QErrThreshold,
			MaxReplans:    req.MaxReplans,
		})
		if err != nil {
			return statusOf(err), err
		}
		s.metrics.Replans.Add(int64(res.Replans))
		writeJSON(w, http.StatusOK, ExecuteResponse{
			Workload: sys.Workload(), Query: req.Query, Rows: res.Rows, Work: res.Work,
			TimedOut: res.TimedOut, Plan: res.Plan,
			Replans: &res.Replans,
		})
		return http.StatusOK, nil
	}
	res, err := sys.ExecuteContext(r.Context(), req.Query, jobench.RunOptions{
		PlanOptions: opts, Rehash: rehash, WorkLimit: req.WorkLimit,
	})
	if err != nil {
		return statusOf(err), err
	}
	writeJSON(w, http.StatusOK, ExecuteResponse{
		Workload: sys.Workload(), Query: req.Query, Rows: res.Rows, Work: res.Work,
		TimedOut: res.TimedOut, Plan: res.Plan,
	})
	return http.StatusOK, nil
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
	if req.Explain != "" && req.Explain != "analyze" {
		return http.StatusBadRequest, fmt.Errorf("unknown explain mode %q (want \"analyze\")", req.Explain)
	}
	opts, err := planOptions(req.PlanRequest)
	if err != nil {
		return http.StatusBadRequest, err
	}
	rehash := true
	if req.Rehash != nil {
		rehash = *req.Rehash
	}
	sys, err := s.system(r.Context(), req.Workload, req.Seed, req.Scale)
	if err != nil {
		return statusOf(err), err
	}
	res, err := sys.ExplainAnalyzeContext(r.Context(), req.Query, jobench.RunOptions{
		PlanOptions: opts, Rehash: rehash, WorkLimit: req.WorkLimit,
	})
	if err != nil {
		return statusOf(err), err
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Workload: sys.Workload(), Query: req.Query,
		Text: res.Text, Nodes: explainNodes(res.Nodes),
		Rows: res.Rows, Work: res.Work, TimedOut: res.TimedOut,
	})
	return http.StatusOK, nil
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
	writeJSON(w, http.StatusOK, EstimateResponse{
		Workload: sys.Workload(), Query: req.Query, Estimator: estimator, Cardinality: card,
	})
	return http.StatusOK, nil
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
	writeJSON(w, http.StatusOK, QueriesResponse{
		Workload: sys.Workload(), Count: len(ids), Queries: ids,
	})
	return http.StatusOK, nil
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
		writeJSON(w, http.StatusOK, ExperimentResponse{
			Experiment: name,
			Workload:   key.World.Workload,
			Seed:       key.World.Seed,
			Scale:      key.World.Scale,
			Report:     text,
		})
		return http.StatusOK, nil
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(text))
	return http.StatusOK, nil
}

// maxSamples caps /v1/experiment's samples parameter at ten times fig9's
// default. The sweep runs detached under the server context and holds its
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
	key     Key
	name    string
	samples int
}

// reportCacheCap bounds the memoized reports. Keys embed client-supplied
// (seed, scale), so without a cap a client iterating seeds would grow the
// cache without limit; beyond the cap the oldest insertion is dropped
// (recomputable at the cost of one sweep).
const reportCacheCap = 128

type reportCache struct {
	mu    sync.Mutex
	m     map[reportKey]string
	order []reportKey // insertion order, oldest first
}

func newReportCache() *reportCache {
	return &reportCache{m: make(map[reportKey]string)}
}

func (c *reportCache) get(k reportKey) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	text, ok := c.m[k]
	return text, ok
}

func (c *reportCache) put(k reportKey, text string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; !ok {
		c.order = append(c.order, k)
	}
	c.m[k] = text
	for len(c.m) > reportCacheCap && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.m, victim)
	}
}

// report returns the memoized rendering of one experiment, computing it
// under single-flight on a miss. The computation runs detached under the
// server's lifetime context, not the triggering request's: concurrent
// waiters share the flight, so one client's disconnect or expired
// deadline must not cancel work the others (and the cache) still want —
// while shutdown still aborts it. The requester's own wait IS bounded by
// its context (DoContext): a deadline-carrying request gets its 504 on
// time even though the sweep keeps running for the cache. The initiator's
// trace still records the admission-wait and experiment spans — trace
// recording is straggler-safe by design.
//
// Only successful renders are cached, so a cancelled or failed run never
// poisons the cache.
func (s *Server) report(ctx context.Context, k reportKey) (string, error) {
	if text, ok := s.reports.get(k); ok {
		s.metrics.ReportObserve(k.key.World.Workload, true)
		return text, nil
	}
	s.metrics.ReportObserve(k.key.World.Workload, false)
	// The computation context: server lifetime for cancellation, the
	// requester's trace for observability.
	cctx := s.serverCtx()
	if tr := trace.FromContext(ctx); tr != nil {
		cctx = trace.NewContext(cctx, tr)
	}
	text, err, _ := s.reportFlight.DoContext(ctx, k, func() (string, error) {
		if text, ok := s.reports.get(k); ok {
			return text, nil
		}
		// Admission control: only the goroutine that actually computes
		// acquires (cache hits and flight waiters never queue), under the
		// server lifetime context so shutdown unblocks the queue. A full
		// waiter queue sheds immediately (errShed → 429) instead of
		// joining an unbounded line.
		weight := experimentWeight(k.name)
		asp := trace.StartSpan(cctx, "admission.wait")
		err := s.admit.acquire(s.serverCtx(), weight)
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
		text, err := experiments.RunExperiment(s.serverCtx(), lab, k.name, experiments.Params{Samples: k.samples})
		esp.End(trace.String("experiment", k.name))
		if err != nil {
			return "", err
		}
		s.reports.put(k, text)
		return text, nil
	})
	return text, err
}
