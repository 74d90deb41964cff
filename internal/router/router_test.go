package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jobench/internal/deadline"
	"jobench/internal/trace"
)

// testLogger routes router diagnostics into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// echoBackend answers every /v1/* request with its own id plus the body it
// saw, and /healthz with 200.
func echoBackend(t *testing.T, id string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"backend": id, "path": r.URL.Path, "body": string(body)})
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func newTestRouter(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// metricsText renders s's /metrics exposition.
func metricsText(s *Server) string {
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rr.Body.String()
}

// TestForwardAffinity: requests for one (workload, seed, scale) world
// always land on the ring owner, across both POST bodies and GET query
// params.
func TestForwardAffinity(t *testing.T) {
	a, _ := echoBackend(t, "a")
	b, _ := echoBackend(t, "b")
	c, _ := echoBackend(t, "c")
	urls := []string{a.URL, b.URL, c.URL}
	s := newTestRouter(t, Config{Addr: ":0", Replicas: urls})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	ring := NewRingFromConfig(urls)
	for seed := int64(1); seed <= 20; seed++ {
		key := AffinityKey("imdb", seed, 0.1)
		wantURL := ring.Owner(key)

		body := fmt.Sprintf(`{"query":"13d","workload":"imdb","seed":%d,"scale":0.1}`, seed)
		resp, err := http.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Jobench-Replica"); got != wantURL {
			t.Fatalf("seed %d: POST landed on %s, ring owner is %s", seed, got, wantURL)
		}
		resp.Body.Close()

		resp, err = http.Get(fmt.Sprintf("%s/v1/queries?workload=imdb&seed=%d&scale=0.1", front.URL, seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Jobench-Replica"); got != wantURL {
			t.Fatalf("seed %d: GET landed on %s, ring owner is %s", seed, got, wantURL)
		}
		resp.Body.Close()
	}
}

// TestFailoverAndMarkDown: a dead owner's requests fail over to the next
// live candidate; after MarkDownAfter transport errors the replica is
// marked down (visible in /healthz and /metrics) and stops being tried.
func TestFailoverAndMarkDown(t *testing.T) {
	a, _ := echoBackend(t, "a")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	urls := []string{a.URL, deadURL}
	s := newTestRouter(t, Config{
		Addr: ":0", Replicas: urls, MarkDownAfter: 2,
		Logger: testLogger(t),
	})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	// Find a seed the dead replica owns, so forwards must fail over.
	ring := NewRingFromConfig(urls)
	seed := int64(-1)
	for i := int64(0); i < 1000; i++ {
		if ring.Owner(AffinityKey("imdb", i, 0.1)) == strings.TrimRight(deadURL, "/") {
			seed = i
			break
		}
	}
	if seed < 0 {
		t.Fatal("no key owned by the dead replica in 1000 tries")
	}

	for i := 0; i < 3; i++ {
		resp, err := http.Post(front.URL+"/v1/optimize", "application/json",
			strings.NewReader(fmt.Sprintf(`{"workload":"imdb","seed":%d,"scale":0.1}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via failover", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Jobench-Replica"); got != a.URL {
			t.Fatalf("request %d: landed on %s, want failover to %s", i, got, a.URL)
		}
		resp.Body.Close()
	}

	if s.isLive(deadURL) {
		t.Fatal("dead replica still marked live after repeated transport errors")
	}
	metrics := metricsText(s)
	if want := fmt.Sprintf("jobench_router_replica_up{replica=%q} 0", deadURL); !strings.Contains(metrics, want) {
		t.Fatalf("metrics missing %q:\n%s", want, metrics)
	}
	if want := fmt.Sprintf("jobench_router_replica_markdowns_total{replica=%q} 1", deadURL); !strings.Contains(metrics, want) {
		t.Fatalf("metrics missing %q (mark-down must count once per transition):\n%s", want, metrics)
	}
	// Retries landed on the survivor.
	if want := fmt.Sprintf("jobench_router_replica_retries_total{replica=%q}", a.URL); !strings.Contains(metrics, want) {
		t.Fatalf("metrics missing retry counter for %s:\n%s", a.URL, metrics)
	}
}

// TestHealthLoopRecovery: the probe loop marks a failing replica down and
// a recovered one back up.
func TestHealthLoopRecovery(t *testing.T) {
	var healthy atomic.Bool
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer backend.Close()

	s := newTestRouter(t, Config{
		Addr: ":0", Replicas: []string{backend.URL},
		HealthInterval: 10 * time.Millisecond, HealthTimeout: time.Second,
		MarkDownAfter: 2, Logger: testLogger(t),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.healthLoop(ctx)

	waitFor(t, "mark-down", func() bool { return !s.isLive(backend.URL) })
	healthy.Store(true)
	waitFor(t, "recovery", func() bool { return s.isLive(backend.URL) })
}

// TestNoLiveReplica: with everything down the router answers 503 and
// counts it.
func TestNoLiveReplica(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	s := newTestRouter(t, Config{Addr: ":0", Replicas: []string{deadURL}, MarkDownAfter: 1, Logger: testLogger(t)})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	// First request: transport error marks the only replica down.
	resp, err := http.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Second request: no live replica at all.
	resp, err = http.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 with no live replicas", resp.StatusCode)
	}
	if s.noReplica.Load() == 0 {
		t.Fatal("no-replica refusals not counted")
	}

	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status %d, want 503 with no live replicas", hresp.StatusCode)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestForwardPropagatesTraceID: the router mints a trace ID, stamps it on
// the response and the forwarded request (so router and replica record
// spans under the same trace), honors a caller-supplied ID, and keeps the
// finished trace in its /v1/traces ring.
func TestForwardPropagatesTraceID(t *testing.T) {
	var seen atomic.Value // trace header the backend received
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		seen.Store(r.Header.Get(trace.Header))
		fmt.Fprint(w, `{}`)
	}))
	defer backend.Close()

	s := newTestRouter(t, Config{Addr: ":0", Replicas: []string{backend.URL}, Logger: testLogger(t)})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	// Router-minted ID: response header, backend header and the trace
	// ring must all agree.
	resp, err := http.Post(front.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"query":"1a"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(trace.Header)
	if _, ok := trace.ParseID(id); !ok {
		t.Fatalf("response trace header %q is not a valid ID", id)
	}
	if got := seen.Load(); got != id {
		t.Fatalf("backend saw trace %q, response says %q", got, id)
	}
	recs := s.Traces().Snapshot(0, "")
	if len(recs) != 1 || recs[0].TraceID != id {
		t.Fatalf("trace ring = %+v, want one record with id %s", recs, id)
	}
	if len(recs[0].Spans) == 0 || recs[0].Spans[0].Name != "forward" {
		t.Fatalf("trace record lacks the forward span: %+v", recs[0].Spans)
	}

	// Caller-supplied ID: continued, not replaced.
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/optimize",
		strings.NewReader(`{"query":"1a"}`))
	if err != nil {
		t.Fatal(err)
	}
	const want = "00000000deadbeef"
	req.Header.Set(trace.Header, want)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(trace.Header); got != want {
		t.Fatalf("caller-supplied trace %q came back as %q", want, got)
	}
	if got := seen.Load(); got != want {
		t.Fatalf("backend saw trace %q, want %q", got, want)
	}
}

// flakyBackend answers /v1/* with the configured status while failing is
// true and 200 otherwise; /healthz is always 200 so only the breaker (not
// the probe loop) reacts to the failures.
func flakyBackend(t *testing.T, status int) (*httptest.Server, *atomic.Bool, *atomic.Int64) {
	t.Helper()
	var failing atomic.Bool
	var hits atomic.Int64
	failing.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		hits.Add(1)
		if failing.Load() {
			w.WriteHeader(status)
			fmt.Fprint(w, `{"error":"injected"}`)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &failing, &hits
}

// ownedSeed finds a seed whose ring owner is url.
func ownedSeed(t *testing.T, urls []string, url string) int64 {
	t.Helper()
	ring := NewRingFromConfig(urls)
	for i := int64(0); i < 1000; i++ {
		if ring.Owner(AffinityKey("imdb", i, 0.1)) == strings.TrimRight(url, "/") {
			return i
		}
	}
	t.Fatalf("no key owned by %s in 1000 tries", url)
	return -1
}

// TestRetryOn5xx: a retryable 500 from the owner is retried (with backoff,
// within budget) on the next candidate BEFORE anything is committed to the
// client, who sees only the eventual 200; the retry is visible in the
// trace and the retries counter.
func TestRetryOn5xx(t *testing.T) {
	bad, _, badHits := flakyBackend(t, http.StatusInternalServerError)
	good, _ := echoBackend(t, "good")
	urls := []string{bad.URL, good.URL}
	s := newTestRouter(t, Config{Addr: ":0", Replicas: urls, Logger: testLogger(t)})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	seed := ownedSeed(t, urls, bad.URL)
	resp, err := http.Post(front.URL+"/v1/optimize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"workload":"imdb","seed":%d,"scale":0.1}`, seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via retry", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Jobench-Replica"); got != good.URL {
		t.Fatalf("landed on %s, want retry to %s", got, good.URL)
	}
	if badHits.Load() == 0 {
		t.Fatal("failing owner was never tried")
	}
	recs := s.Traces().Snapshot(0, "")
	var sawRetry bool
	for _, sp := range recs[0].Spans {
		if sp.Name == "retry" {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatalf("trace lacks a retry annotation: %+v", recs[0].Spans)
	}
	if want := fmt.Sprintf("jobench_router_replica_retries_total{replica=%q} 1", good.URL); !strings.Contains(metricsText(s), want) {
		t.Fatalf("metrics missing %q", want)
	}
}

// TestRetryBudgetExhausted: sustained failure drains the per-client token
// bucket, after which 500s are served as-is instead of amplified into
// retries — and the suppression is counted.
func TestRetryBudgetExhausted(t *testing.T) {
	bad, _, _ := flakyBackend(t, http.StatusInternalServerError)
	good, _ := echoBackend(t, "good")
	urls := []string{bad.URL, good.URL}
	s := newTestRouter(t, Config{Addr: ":0", Replicas: urls, Logger: testLogger(t)})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	seed := ownedSeed(t, urls, bad.URL)
	body := fmt.Sprintf(`{"workload":"imdb","seed":%d,"scale":0.1}`, seed)
	got500 := 0
	for i := 0; i < 20; i++ {
		resp, err := http.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusInternalServerError {
			got500++
		}
		resp.Body.Close()
	}
	if got500 == 0 {
		t.Fatal("budget never ran out: every 500 was retried away")
	}
	if s.budgetDenied.Load() == 0 {
		t.Fatal("suppressed retries not counted")
	}
	if !strings.Contains(metricsText(s), "jobench_router_retry_budget_exhausted_total") {
		t.Fatal("metrics missing jobench_router_retry_budget_exhausted_total")
	}
}

// TestBreakerThrottleAndRecovery: a replica that answers its probes but
// fails its requests gets throttled (half its traffic routed around it)
// once the outcome window condemns it, and is restored with hysteresis
// after it heals — no mark-down involved at any point.
func TestBreakerThrottleAndRecovery(t *testing.T) {
	bad, failing, _ := flakyBackend(t, http.StatusInternalServerError)
	good, _ := echoBackend(t, "good")
	urls := []string{bad.URL, good.URL}
	s := newTestRouter(t, Config{Addr: ":0", Replicas: urls, Logger: testLogger(t)})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	seed := ownedSeed(t, urls, bad.URL)
	body := fmt.Sprintf(`{"workload":"imdb","seed":%d,"scale":0.1}`, seed)
	post := func() {
		resp, err := http.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	rep := s.replicas[strings.TrimRight(bad.URL, "/")]
	for i := 0; i < 2*breakerWindow && !rep.throttled.Load(); i++ {
		post()
	}
	if !rep.throttled.Load() {
		t.Fatal("breaker never throttled a replica failing every request")
	}
	if want := fmt.Sprintf("jobench_router_breaker_throttled{replica=%q} 1", strings.TrimRight(bad.URL, "/")); !strings.Contains(metricsText(s), want) {
		t.Fatalf("metrics missing %q", want)
	}
	if s.isLive(bad.URL) != true {
		t.Fatal("breaker must throttle, not mark down")
	}

	// Heal it: successes wash the failures out of the window (the throttle
	// still admits every other request, which is how it observes recovery).
	failing.Store(false)
	for i := 0; i < 4*breakerWindow && rep.throttled.Load(); i++ {
		post()
	}
	if rep.throttled.Load() {
		t.Fatal("breaker never restored a healed replica")
	}
	rep.mu.Lock()
	transitions := rep.transitions
	rep.mu.Unlock()
	if transitions != 2 {
		t.Fatalf("breaker transitions = %d, want 2 (throttle + restore)", transitions)
	}
}

// TestDeadlineMintedAndPropagated: the router stamps an absolute
// X-Jobench-Deadline derived from RequestTimeout on every forward, honors
// an earlier client-supplied one, and answers 504 itself when the deadline
// is already spent — without charging a replica for it.
func TestDeadlineMintedAndPropagated(t *testing.T) {
	var seen atomic.Value // deadline header the backend received
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		seen.Store(r.Header.Get(deadline.Header))
		fmt.Fprint(w, `{}`)
	}))
	defer backend.Close()

	s := newTestRouter(t, Config{
		Addr: ":0", Replicas: []string{backend.URL},
		RequestTimeout: 5 * time.Second, Logger: testLogger(t),
	})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	// Minted: absolute, within (now, now+RequestTimeout].
	before := time.Now()
	resp, err := http.Post(front.URL+"/v1/optimize", "application/json", strings.NewReader(`{"query":"1a"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dl, ok := deadline.Parse(seen.Load().(string))
	if !ok {
		t.Fatalf("backend saw no parseable deadline header, got %q", seen.Load())
	}
	if dl.Before(before) || dl.After(before.Add(6*time.Second)) {
		t.Fatalf("minted deadline %v outside (now, now+5s]", dl.Sub(before))
	}

	// Client-supplied earlier deadline wins.
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/optimize", strings.NewReader(`{"query":"1a"}`))
	want := time.Now().Add(time.Second)
	deadline.Set(req.Header, want)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dl, ok = deadline.Parse(seen.Load().(string))
	if !ok || !dl.Equal(want.Truncate(time.Millisecond)) {
		t.Fatalf("client deadline %v not honored: backend saw %v", want, dl)
	}

	// Already-expired deadline: 504 from the router, replica untouched.
	req, _ = http.NewRequest(http.MethodPost, front.URL+"/v1/optimize", strings.NewReader(`{"query":"1a"}`))
	deadline.Set(req.Header, time.Now().Add(-time.Second))
	seen.Store("")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline got %d, want 504", resp.StatusCode)
	}
	if seen.Load() != "" {
		t.Fatal("expired-deadline request still reached the replica")
	}
	if s.deadlineExpired.Load() == 0 {
		t.Fatal("router-side deadline expiry not counted")
	}
}

// TestAttemptTimeoutRetriesHungReplica: a hung replica burns one
// AttemptTimeout, not the whole deadline — the remaining budget funds a
// retry that succeeds on the next candidate.
func TestAttemptTimeoutRetriesHungReplica(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		// Drain the body so the server watches the connection: that is how
		// it notices the router abandoning the attempt (context cancel).
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hang until the router gives up on the attempt
	}))
	defer hung.Close()
	good, _ := echoBackend(t, "good")
	urls := []string{hung.URL, good.URL}
	s := newTestRouter(t, Config{
		Addr: ":0", Replicas: urls,
		RequestTimeout: 5 * time.Second, AttemptTimeout: 100 * time.Millisecond,
		Logger: testLogger(t),
	})
	front := httptest.NewServer(s.Handler())
	defer front.Close()

	seed := ownedSeed(t, urls, hung.URL)
	start := time.Now()
	resp, err := http.Post(front.URL+"/v1/optimize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"workload":"imdb","seed":%d,"scale":0.1}`, seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via attempt-timeout retry", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Jobench-Replica"); got != good.URL {
		t.Fatalf("landed on %s, want %s", got, good.URL)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("took %v; the hung attempt must be cut at ~100ms", elapsed)
	}
}

// TestGracefulDrain: SIGTERM (ctx cancel) stops accepting but lets an
// in-flight forward finish within ShutdownGrace; the client sees its 200,
// not a reset.
func TestGracefulDrain(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		select {
		case <-time.After(300 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		fmt.Fprint(w, `{"slow":true}`)
	}))
	defer slow.Close()

	s := newTestRouter(t, Config{
		Addr: ":0", Replicas: []string{slow.URL},
		ShutdownGrace: 3 * time.Second, Logger: testLogger(t),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/optimize",
			"application/json", strings.NewReader(`{"query":"1a"}`))
		if err != nil {
			results <- result{err: err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		results <- result{status: resp.StatusCode}
	}()

	time.Sleep(100 * time.Millisecond) // request is in flight at the backend
	cancel()                           // "SIGTERM"

	r := <-results
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain, want 200", r.status)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned after drain")
	}
}

// TestDrainCancelsStragglers: a forward still running when ShutdownGrace
// expires is cancelled rather than held forever — Serve returns promptly.
func TestDrainCancelsStragglers(t *testing.T) {
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer stuck.Close()

	s := newTestRouter(t, Config{
		Addr: ":0", Replicas: []string{stuck.URL},
		ShutdownGrace: 200 * time.Millisecond, Logger: testLogger(t),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/optimize",
			"application/json", strings.NewReader(`{"query":"1a"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()

	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case <-served:
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("drain of a stuck forward took %v, grace is 200ms", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned with a stuck in-flight forward")
	}
}
