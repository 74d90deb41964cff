// Package router fronts N jobench serve replicas with consistent hashing
// on (seed, scale): every request for one world lands on the same replica,
// so that replica's LRU system pool stays hot while the others never pay
// for it. The router health-checks each replica's /healthz on an interval,
// marks a replica down after consecutive failures (its keys move to the
// next-clockwise neighbor; everyone else's keys stay put) and back up on
// recovery, bounds per-replica in-flight forwards, and exposes its own
// /healthz and /metrics (per-replica request counts, latencies, retries,
// mark-downs, breaker state).
//
// The router is also the resilience boundary of the distributed tier. It
// mints an absolute end-to-end deadline (X-Jobench-Deadline) that replicas
// enforce as context deadlines all the way into engine execution; it
// retries transport errors and retryable 5xx on the next candidate with
// exponential backoff and jitter, but only on idempotent routes, only
// within the remaining deadline, and only while the client's retry budget
// (a token bucket refilled as a fraction of its request rate) has tokens —
// so a correlated outage degrades to pass-through instead of a retry
// storm. A per-replica circuit breaker over a sliding outcome window
// routes half the traffic around a replica that answers but fails, the
// step between healthy and probe-driven mark-down. On shutdown the router
// drains: in-flight forwards get ShutdownGrace to finish before their
// contexts are cancelled.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jobench/internal/deadline"
	"jobench/internal/trace"
)

// Config configures a router Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (":8070").
	Addr string
	// Replicas are the base URLs of the jobench serve backends
	// ("http://127.0.0.1:8081"). At least one is required.
	Replicas []string
	// HealthInterval is the period of the per-replica /healthz probe
	// (default 2s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
	// MarkDownAfter is the number of consecutive probe or forward failures
	// that marks a replica down (default 2). One success marks it back up.
	MarkDownAfter int
	// InFlightPerReplica bounds concurrent forwards per replica; excess
	// requests queue (default 32).
	InFlightPerReplica int
	// ForwardTimeout bounds one forwarded request, queueing included
	// (default 5m — experiment sweeps are legitimately slow).
	ForwardTimeout time.Duration
	// RequestTimeout is the end-to-end deadline the router mints for every
	// forwarded request as an absolute X-Jobench-Deadline header, honored
	// by replicas as a context deadline all the way into engine execution.
	// A client-supplied earlier deadline wins; a later one is clamped to
	// this policy. Default: ForwardTimeout.
	RequestTimeout time.Duration
	// AttemptTimeout bounds ONE forward attempt, so a hung replica burns
	// one attempt's worth of budget instead of the whole deadline — the
	// remaining budget funds a retry on the next candidate. Default:
	// RequestTimeout (one attempt may use the full budget).
	AttemptTimeout time.Duration
	// MaxRetries bounds re-attempts after the first forward (transport
	// errors and retryable 5xx alike; default 2).
	MaxRetries int
	// RetryBudget is the per-client retry allowance as a fraction of its
	// request rate: each initial request earns this many retry tokens
	// (bucket capped at 10), each retry spends one, and an empty bucket
	// means the failure is served as-is — no retry storms under correlated
	// failure (default 0.2).
	RetryBudget float64
	// ShutdownGrace bounds how long a cancelled router waits for in-flight
	// forwards to drain — undisturbed — before cancelling the stragglers
	// (default 5s).
	ShutdownGrace time.Duration
	// TraceCapacity bounds the ring buffer of recently finished request
	// traces served by the router's own /v1/traces (non-positive selects
	// trace.DefaultStoreCapacity).
	TraceCapacity int
	// SlowQuery logs a span summary for every forwarded request at least
	// this slow (0 disables outlier logging).
	SlowQuery time.Duration
	// Logger receives router diagnostics (default slog.Default()).
	// Request-scoped lines carry trace_id and route attrs.
	Logger *slog.Logger
}

func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

// logf adapts the structured logger for the router's non-request lines.
func (c Config) logf() func(format string, args ...any) {
	lg := c.logger()
	return func(format string, args ...any) {
		lg.Info(fmt.Sprintf(format, args...))
	}
}

// Circuit-breaker tuning. The breaker watches a sliding window of forward
// outcomes per replica and sits BETWEEN healthy and marked-down: a replica
// that still answers probes but fails half its real requests gets half its
// traffic routed around it (hysteresis keeps it from flapping), while the
// probe-driven mark-down still handles the fully dead case.
const (
	breakerWindow     = 32  // outcomes remembered per replica
	breakerMinSamples = 16  // don't judge a replica on fewer outcomes
	breakerOnFrac     = 0.5 // failure fraction that starts throttling
	breakerOffFrac    = 0.2 // failure fraction that ends it
)

// replica is one backend and its router-side state.
type replica struct {
	url string

	up        atomic.Bool
	consecNow atomic.Int64 // consecutive failures (probe or forward)

	slots chan struct{} // in-flight limiter, capacity InFlightPerReplica

	// Breaker state: throttled/throttleTick are read on the hot path
	// lock-free; the outcome window is folded into the mu section the
	// per-request bookkeeping already takes.
	throttled    atomic.Bool
	throttleTick atomic.Int64 // alternates admit/defer while throttled

	mu          sync.Mutex
	requests    map[int]int64 // status code -> count (0 = transport error)
	seconds     float64       // cumulative forward latency
	retries     int64         // re-attempts that landed on this replica
	markDowns   int64         // up -> down transitions
	outcomes    [breakerWindow]bool
	outcomeIdx  int
	outcomeN    int
	transitions int64 // breaker state flips (both directions)
}

// Server is the consistent-hash router.
type Server struct {
	cfg      Config
	ring     *Ring
	replicas map[string]*replica
	mux      *http.ServeMux
	client   *http.Client
	traces   *trace.Store
	budget   *budgetPool

	noReplica       atomic.Int64 // requests refused because no replica was live
	deadlineExpired atomic.Int64 // requests that ran out their end-to-end deadline here
	budgetDenied    atomic.Int64 // retries suppressed by an empty client budget
}

// New builds a router Server (without binding a socket).
func New(cfg Config) (*Server, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.MarkDownAfter <= 0 {
		cfg.MarkDownAfter = 2
	}
	if cfg.InFlightPerReplica <= 0 {
		cfg.InFlightPerReplica = 32
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 5 * time.Minute
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = cfg.ForwardTimeout
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = cfg.RequestTimeout
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 0.2
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 5 * time.Second
	}
	ring := NewRingFromConfig(cfg.Replicas)
	// Tuned transport: the stdlib default of 2 idle conns per host forces
	// reconnect churn the moment fan-out exceeds 2, and an unbounded dial
	// lets a black-holed replica eat a whole attempt. Size the keep-alive
	// pool to the in-flight bound so steady state never redials; the
	// per-attempt timeout still comes from request contexts.
	transport := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        len(cfg.Replicas) * cfg.InFlightPerReplica,
		MaxIdleConnsPerHost: cfg.InFlightPerReplica,
		IdleConnTimeout:     90 * time.Second,
	}
	s := &Server{
		cfg:      cfg,
		ring:     ring,
		replicas: make(map[string]*replica, len(ring.Replicas())),
		mux:      http.NewServeMux(),
		client:   &http.Client{Transport: transport},
		traces:   trace.NewStore(cfg.TraceCapacity),
		budget:   newBudgetPool(cfg.RetryBudget),
	}
	for _, u := range ring.Replicas() {
		rep := &replica{
			url:      u,
			slots:    make(chan struct{}, cfg.InFlightPerReplica),
			requests: make(map[int]int64),
		}
		// Replicas start marked up: the first failed probe or forward flips
		// them, and starting optimistic means a router booted alongside its
		// replicas serves as soon as anything answers instead of rejecting
		// until the first probe cycle completes.
		rep.up.Store(true)
		s.replicas[u] = rep
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// More specific than the forward catch-all: the router answers
	// /v1/traces itself (its view of recent forwards); each replica still
	// serves its own ring directly.
	s.mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) { s.traces.Serve(w, r) })
	s.mux.HandleFunc("/v1/", s.handleForward)
	return s, nil
}

// Traces exposes the router's trace ring (for tests and embedding).
func (s *Server) Traces() *trace.Store { return s.traces }

// NewRingFromConfig builds the ring the router uses; exported so replicas
// (service peer-fill) and tests derive owners from the identical ring.
func NewRingFromConfig(replicas []string) *Ring {
	trimmed := make([]string, 0, len(replicas))
	for _, r := range replicas {
		r = strings.TrimRight(strings.TrimSpace(r), "/")
		if r != "" {
			trimmed = append(trimmed, r)
		}
	}
	return NewRing(trimmed)
}

// Handler returns the router's HTTP handler (also useful under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, running
// the health-check loop alongside; see service.Server.ListenAndServe for
// the shutdown contract it mirrors.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.cfg.logf()("jobench router: listening on %s, %d replicas (%s)",
		ln.Addr(), len(s.replicas), strings.Join(s.ring.Replicas(), ", "))
	return s.Serve(ctx, ln)
}

// Serve runs the router on an existing listener until ctx is cancelled,
// then drains: it stops accepting, lets in-flight forwards finish
// undisturbed for up to ShutdownGrace, and only then cancels the
// stragglers — a deploy-time SIGTERM doesn't fail requests that were
// about to succeed.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go s.healthLoop(hctx)

	// Request contexts are detached from the serve ctx (WithoutCancel) so
	// cancellation reaches them only via cancelRequests, after the grace
	// window — not the instant SIGTERM lands.
	reqCtx, cancelRequests := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelRequests()

	srv := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.cfg.logf()("jobench router: draining in-flight forwards (%v)", context.Cause(ctx))
		shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		cancelRequests() // grace spent: cut off whatever is still running
		<-errc
		if err != nil {
			// Shutdown gave up waiting; close the remaining conns now that
			// their handlers have lost their contexts.
			_ = srv.Close()
		}
		return err
	}
}

// --- health checking --------------------------------------------------------

// healthLoop probes every replica immediately and then on HealthInterval
// until ctx is cancelled.
func (s *Server) healthLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.HealthInterval)
	defer t.Stop()
	for {
		var wg sync.WaitGroup
		for _, rep := range s.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				s.probe(ctx, rep)
			}(rep)
		}
		wg.Wait()
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (s *Server) probe(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, s.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		s.noteFailure(rep)
		return
	}
	resp, err := s.client.Do(req)
	if err != nil {
		s.noteFailure(rep)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.noteFailure(rep)
		return
	}
	s.noteSuccess(rep)
}

// noteFailure records one failed probe or forward; MarkDownAfter
// consecutive failures flip the replica down (counted once per
// transition).
func (s *Server) noteFailure(rep *replica) {
	n := rep.consecNow.Add(1)
	if n >= int64(s.cfg.MarkDownAfter) && rep.up.CompareAndSwap(true, false) {
		rep.mu.Lock()
		rep.markDowns++
		rep.mu.Unlock()
		s.cfg.logf()("jobench router: replica %s marked down after %d consecutive failures", rep.url, n)
	}
}

// noteSuccess resets the failure streak and marks the replica up.
func (s *Server) noteSuccess(rep *replica) {
	rep.consecNow.Store(0)
	if rep.up.CompareAndSwap(false, true) {
		s.cfg.logf()("jobench router: replica %s back up", rep.url)
	}
}

func (s *Server) isLive(url string) bool {
	rep := s.replicas[url]
	return rep != nil && rep.up.Load()
}

// recordOutcome feeds one forward result into rep's breaker window and
// flips the breaker with hysteresis: throttling starts at breakerOnFrac
// over at least breakerMinSamples and ends only below breakerOffFrac, so
// a replica hovering around the threshold doesn't flap.
func (s *Server) recordOutcome(rep *replica, failure bool) {
	rep.mu.Lock()
	rep.outcomes[rep.outcomeIdx] = failure
	rep.outcomeIdx = (rep.outcomeIdx + 1) % breakerWindow
	if rep.outcomeN < breakerWindow {
		rep.outcomeN++
	}
	fails := 0
	for i := 0; i < rep.outcomeN; i++ {
		if rep.outcomes[i] {
			fails++
		}
	}
	frac := float64(fails) / float64(rep.outcomeN)
	var flip string
	switch {
	case !rep.throttled.Load() && rep.outcomeN >= breakerMinSamples && frac >= breakerOnFrac:
		rep.throttled.Store(true)
		rep.transitions++
		flip = "throttling"
	case rep.throttled.Load() && frac < breakerOffFrac:
		rep.throttled.Store(false)
		rep.transitions++
		flip = "restored"
	}
	n := rep.outcomeN
	rep.mu.Unlock()
	if flip != "" {
		s.cfg.logf()("jobench router: breaker %s replica %s (failure fraction %.2f over %d outcomes)",
			flip, rep.url, frac, n)
	}
}

// --- retry budget -----------------------------------------------------------

const (
	budgetBurst      = 10   // max banked retry tokens per client
	budgetMaxClients = 1024 // bound on tracked clients (arbitrary eviction past it)
)

// budgetPool is the per-client retry-token store: each initial request
// earns ratio tokens, each retry spends one, and a new client starts with
// a full bucket so cold-start failovers aren't penalized. Under sustained
// correlated failure the bucket drains and retries stop — the router
// amplifies load by at most (1 + ratio) instead of (1 + MaxRetries).
type budgetPool struct {
	ratio float64
	mu    sync.Mutex
	m     map[string]float64
}

func newBudgetPool(ratio float64) *budgetPool {
	return &budgetPool{ratio: ratio, m: make(map[string]float64)}
}

// earn credits one initial request from client.
func (p *budgetPool) earn(client string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.m[client]
	if !ok {
		if len(p.m) >= budgetMaxClients {
			for k := range p.m { // bound the map; precision isn't the point
				delete(p.m, k)
				break
			}
		}
		v = budgetBurst
	} else if v += p.ratio; v > budgetBurst {
		v = budgetBurst
	}
	p.m[client] = v
}

// spend takes one retry token; false means the budget is exhausted.
func (p *budgetPool) spend(client string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m[client] < 1 {
		return false
	}
	p.m[client]--
	return true
}

// clientHost is the budget key: the peer address without the ephemeral
// port, so one misbehaving host shares one bucket across connections.
func clientHost(remoteAddr string) string {
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return remoteAddr
}

// retryableRoute reports whether a request is safe to re-send after a
// failed attempt. Every route here is a deterministic read over immutable
// snapshots (replaying cannot double-apply anything); unknown POSTs get no
// retries, only the response they earned.
func retryableRoute(r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	if r.Method != http.MethodPost {
		return false
	}
	switch r.URL.Path {
	case "/v1/optimize", "/v1/estimate", "/v1/explain", "/v1/execute":
		return true
	}
	return false
}

// retryableStatus reports whether a replica response is worth re-sending
// elsewhere: 500/502/503 are replica-local failures another candidate may
// not share. 429 is load shedding — retrying defeats it — and 504 means
// the shared deadline budget ran out, which no retry can beat.
func retryableStatus(code int) bool {
	return code == http.StatusInternalServerError ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// mayRetry decides (and charges for) one more attempt: the route must be
// replayable, attempts must remain, enough deadline must be left to be
// worth spending, and the client's budget must have a token.
func (s *Server) mayRetry(ctx context.Context, client string, tried int, dl time.Time, routeOK bool) bool {
	if !routeOK || tried > s.cfg.MaxRetries || ctx.Err() != nil {
		return false
	}
	if time.Until(dl) < 10*time.Millisecond {
		return false
	}
	if !s.budget.spend(client) {
		s.budgetDenied.Add(1)
		trace.Annotate(ctx, "retry.budget_exhausted")
		return false
	}
	return true
}

// backoff sleeps before retry number n (1-based): 25ms·2^(n-1) with ±50%
// jitter, capped at 1s and bounded by ctx; false means the deadline won.
func backoff(ctx context.Context, n int) bool {
	d := 25 * time.Millisecond << (n - 1)
	if d > time.Second {
		d = time.Second
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // [d/2, 3d/2)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// --- forwarding -------------------------------------------------------------

// maxBodyBytes bounds a forwarded request body; the /v1 bodies are small
// JSON documents, so anything past this is abusive, not legitimate.
const maxBodyBytes = 1 << 20

// worldFields is the partial body decode used only for affinity: every
// field except workload/seed/scale is opaque to the router.
type worldFields struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
}

func (s *Server) handleForward(w http.ResponseWriter, r *http.Request) {
	// The router is the usual origin of a request's trace: mint an ID
	// (or continue a caller-supplied one), stamp it on the response and
	// on every forward attempt, and keep the trace in the router's ring.
	tr, r := trace.Begin(w, r, r.URL.Path)
	defer s.traces.Finish(tr, s.cfg.SlowQuery, s.cfg.logger())

	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxBodyBytes))
		return
	}

	var ss worldFields
	if len(body) > 0 {
		// Affinity only: an undecodable body still forwards (the replica
		// owns the real validation and its error message), hashed as the
		// default world.
		_ = json.Unmarshal(body, &ss)
	} else {
		q := r.URL.Query()
		ss.Workload = q.Get("workload")
		ss.Seed, _ = strconv.ParseInt(q.Get("seed"), 10, 64)
		ss.Scale, _ = strconv.ParseFloat(q.Get("scale"), 64)
	}
	key := AffinityKey(ss.Workload, ss.Seed, ss.Scale)

	// End-to-end deadline: honor a client-supplied X-Jobench-Deadline when
	// it is earlier than the router's own policy, otherwise mint one from
	// RequestTimeout. The ABSOLUTE header travels with every attempt, so
	// replica-side queueing and router-side retries consume one shared
	// budget instead of each resetting the clock.
	dl := time.Now().Add(s.cfg.RequestTimeout)
	if cdl, ok := deadline.FromRequest(r); ok && cdl.Before(dl) {
		dl = cdl
	}
	ctx, cancel := context.WithDeadline(r.Context(), dl)
	defer cancel()

	clientKey := clientHost(r.RemoteAddr)
	s.budget.earn(clientKey)
	routeOK := retryableRoute(r)

	// Owner first, then clockwise failover candidates. Down replicas are
	// skipped entirely; breaker-throttled replicas serve every other
	// request and are demoted to last resort on the rest, so a half-broken
	// replica sheds half its load without losing cache affinity (and still
	// gets tried when it is all that's left).
	var candidates, throttledLast []*replica
	for _, url := range s.ring.Sequence(key) {
		rep := s.replicas[url]
		if !rep.up.Load() {
			continue
		}
		if rep.throttled.Load() && rep.throttleTick.Add(1)%2 == 0 {
			throttledLast = append(throttledLast, rep)
			continue
		}
		candidates = append(candidates, rep)
	}
	candidates = append(candidates, throttledLast...)

	tried := 0
	var lastErr error
	for i, rep := range candidates {
		// A spent deadline is the client's answer, not the replica's fault:
		// don't burn an attempt (or a failure mark) on it.
		if ctx.Err() != nil {
			s.deadlineExpired.Add(1)
			httpError(w, http.StatusGatewayTimeout, ctx.Err())
			return
		}
		if tried > 0 {
			rep.mu.Lock()
			// Counted on the replica that receives the re-attempt: the
			// metric answers "how much retry traffic landed here".
			rep.retries++
			rep.mu.Unlock()
		}
		tried++
		pr, err := s.forwardOnce(ctx, rep, r, body, dl)
		if err != nil {
			lastErr = err
			s.noteFailure(rep)
			s.recordOutcome(rep, true)
			if ctx.Err() != nil {
				s.deadlineExpired.Add(1)
				httpError(w, http.StatusGatewayTimeout, ctx.Err())
				return
			}
			s.cfg.logger().Warn("forward failed, trying next replica",
				"replica", rep.url, "err", err,
				"trace_id", tr.ID().String(), "route", r.URL.Path)
			if i+1 < len(candidates) && s.mayRetry(ctx, clientKey, tried, dl, routeOK) {
				trace.Annotate(ctx, "retry",
					trace.String("from", rep.url), trace.String("reason", "transport"))
				if !backoff(ctx, tried) {
					s.deadlineExpired.Add(1)
					httpError(w, http.StatusGatewayTimeout, ctx.Err())
					return
				}
				continue
			}
			break
		}
		// A response arrived: the replica is alive even if unhappy.
		s.noteSuccess(rep)
		s.recordOutcome(rep, pr.status >= http.StatusInternalServerError)
		if retryableStatus(pr.status) && i+1 < len(candidates) &&
			s.mayRetry(ctx, clientKey, tried, dl, routeOK) {
			lastErr = fmt.Errorf("replica %s answered %d", rep.url, pr.status)
			trace.Annotate(ctx, "retry",
				trace.String("from", rep.url), trace.Int64("status", int64(pr.status)))
			s.cfg.logger().Warn("retryable status, trying next replica",
				"replica", rep.url, "status", pr.status,
				"trace_id", tr.ID().String(), "route", r.URL.Path)
			if !backoff(ctx, tried) {
				s.deadlineExpired.Add(1)
				httpError(w, http.StatusGatewayTimeout, ctx.Err())
				return
			}
			continue
		}
		pr.commit(w)
		return
	}
	if lastErr != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("all forward attempts failed: %w", lastErr))
		return
	}
	s.noReplica.Add(1)
	httpError(w, http.StatusServiceUnavailable, fmt.Errorf("no live replica for key %s", key))
}

// proxyResponse is one fully buffered replica response: buffering is what
// lets the router inspect the status and retry BEFORE committing a byte
// downstream (after WriteHeader there is no failing over).
type proxyResponse struct {
	status  int
	header  http.Header
	body    []byte
	replica string
}

func (pr *proxyResponse) commit(w http.ResponseWriter) {
	if ct := pr.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := pr.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Jobench-Replica", pr.replica)
	w.WriteHeader(pr.status)
	_, _ = w.Write(pr.body)
}

// forwardOnce proxies one attempt to rep and returns the buffered
// response. The attempt — slot wait excluded — is bounded by
// AttemptTimeout inside the request's overall deadline, so a hung replica
// burns one attempt's budget, not all of it; dl rides along as the
// deadline header the replica enforces on its side.
func (s *Server) forwardOnce(ctx context.Context, rep *replica, r *http.Request, body []byte, dl time.Time) (*proxyResponse, error) {
	// Per-replica in-flight bound: queue for a slot rather than piling
	// unbounded concurrency onto one backend.
	select {
	case rep.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-rep.slots }()

	actx, acancel := context.WithTimeout(ctx, s.cfg.AttemptTimeout)
	defer acancel()
	req, err := http.NewRequestWithContext(actx, r.Method, rep.url+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if accept := r.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	deadline.Set(req.Header, dl)
	// Propagate the trace ID so the replica's spans land under the same
	// trace the router records.
	if id := trace.IDFromContext(ctx); id != 0 {
		req.Header.Set(trace.Header, id.String())
	}

	sp := trace.StartSpan(ctx, "forward")
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		elapsed := time.Since(start).Seconds()
		sp.End(trace.String("replica", rep.url), trace.String("err", err.Error()))
		rep.mu.Lock()
		rep.requests[0]++
		rep.seconds += elapsed
		rep.mu.Unlock()
		return nil, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start).Seconds()
	if err != nil {
		// A truncated body is a transport failure, not a servable response.
		sp.End(trace.String("replica", rep.url), trace.String("err", err.Error()))
		rep.mu.Lock()
		rep.requests[0]++
		rep.seconds += elapsed
		rep.mu.Unlock()
		return nil, fmt.Errorf("reading replica response: %w", err)
	}
	sp.End(trace.String("replica", rep.url), trace.Int64("status", int64(resp.StatusCode)))

	rep.mu.Lock()
	rep.requests[resp.StatusCode]++
	rep.seconds += elapsed
	rep.mu.Unlock()
	return &proxyResponse{
		status: resp.StatusCode, header: resp.Header,
		body: respBody, replica: rep.url,
	}, nil
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// --- ops surface ------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := 0
	for _, rep := range s.replicas {
		if rep.up.Load() {
			live++
		}
	}
	status := http.StatusOK
	state := "ok"
	if live == 0 {
		status = http.StatusServiceUnavailable
		state = "no live replicas"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": state, "live": live, "replicas": len(s.replicas),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.renderMetrics()))
}

// renderMetrics produces the Prometheus text exposition, replicas and
// status codes sorted for a stable (diffable, testable) rendering.
func (s *Server) renderMetrics() string {
	urls := s.ring.Replicas() // already sorted

	var b strings.Builder
	b.WriteString("# HELP jobench_router_replica_up Replica liveness as seen by the router (1 = up).\n")
	b.WriteString("# TYPE jobench_router_replica_up gauge\n")
	for _, u := range urls {
		up := 0
		if s.replicas[u].up.Load() {
			up = 1
		}
		fmt.Fprintf(&b, "jobench_router_replica_up{replica=%q} %d\n", u, up)
	}
	b.WriteString("# HELP jobench_router_replica_requests_total Forward attempts by replica and status code (code 0 = transport error).\n")
	b.WriteString("# TYPE jobench_router_replica_requests_total counter\n")
	for _, u := range urls {
		rep := s.replicas[u]
		rep.mu.Lock()
		codes := make([]int, 0, len(rep.requests))
		for c := range rep.requests {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "jobench_router_replica_requests_total{replica=%q,code=\"%d\"} %d\n", u, c, rep.requests[c])
		}
		rep.mu.Unlock()
	}
	b.WriteString("# HELP jobench_router_replica_request_seconds_total Cumulative forward latency by replica.\n")
	b.WriteString("# TYPE jobench_router_replica_request_seconds_total counter\n")
	for _, u := range urls {
		rep := s.replicas[u]
		rep.mu.Lock()
		fmt.Fprintf(&b, "jobench_router_replica_request_seconds_total{replica=%q} %g\n", u, rep.seconds)
		rep.mu.Unlock()
	}
	b.WriteString("# HELP jobench_router_replica_retries_total Re-attempts (transport failover or retryable 5xx) that landed on this replica.\n")
	b.WriteString("# TYPE jobench_router_replica_retries_total counter\n")
	for _, u := range urls {
		rep := s.replicas[u]
		rep.mu.Lock()
		fmt.Fprintf(&b, "jobench_router_replica_retries_total{replica=%q} %d\n", u, rep.retries)
		rep.mu.Unlock()
	}
	b.WriteString("# HELP jobench_router_replica_markdowns_total Up-to-down transitions per replica.\n")
	b.WriteString("# TYPE jobench_router_replica_markdowns_total counter\n")
	for _, u := range urls {
		rep := s.replicas[u]
		rep.mu.Lock()
		fmt.Fprintf(&b, "jobench_router_replica_markdowns_total{replica=%q} %d\n", u, rep.markDowns)
		rep.mu.Unlock()
	}
	b.WriteString("# HELP jobench_router_replica_inflight Forwards currently in flight per replica.\n")
	b.WriteString("# TYPE jobench_router_replica_inflight gauge\n")
	for _, u := range urls {
		fmt.Fprintf(&b, "jobench_router_replica_inflight{replica=%q} %d\n", u, len(s.replicas[u].slots))
	}
	b.WriteString("# HELP jobench_router_breaker_throttled Circuit-breaker state per replica (1 = half of its traffic is routed around it).\n")
	b.WriteString("# TYPE jobench_router_breaker_throttled gauge\n")
	for _, u := range urls {
		throttled := 0
		if s.replicas[u].throttled.Load() {
			throttled = 1
		}
		fmt.Fprintf(&b, "jobench_router_breaker_throttled{replica=%q} %d\n", u, throttled)
	}
	b.WriteString("# HELP jobench_router_breaker_transitions_total Circuit-breaker state flips per replica (both directions).\n")
	b.WriteString("# TYPE jobench_router_breaker_transitions_total counter\n")
	for _, u := range urls {
		rep := s.replicas[u]
		rep.mu.Lock()
		fmt.Fprintf(&b, "jobench_router_breaker_transitions_total{replica=%q} %d\n", u, rep.transitions)
		rep.mu.Unlock()
	}
	b.WriteString("# HELP jobench_router_no_replica_total Requests refused because no replica was live.\n")
	b.WriteString("# TYPE jobench_router_no_replica_total counter\n")
	fmt.Fprintf(&b, "jobench_router_no_replica_total %d\n", s.noReplica.Load())
	b.WriteString("# HELP jobench_router_deadline_expired_total Requests whose end-to-end deadline expired at the router.\n")
	b.WriteString("# TYPE jobench_router_deadline_expired_total counter\n")
	fmt.Fprintf(&b, "jobench_router_deadline_expired_total %d\n", s.deadlineExpired.Load())
	b.WriteString("# HELP jobench_router_retry_budget_exhausted_total Retries suppressed because the client's retry budget was empty.\n")
	b.WriteString("# TYPE jobench_router_retry_budget_exhausted_total counter\n")
	fmt.Fprintf(&b, "jobench_router_retry_budget_exhausted_total %d\n", s.budgetDenied.Load())
	return b.String()
}
