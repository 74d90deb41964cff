package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jobench"
	"jobench/internal/deadline"
	"jobench/internal/experiments"
	"jobench/internal/fault"
	"jobench/internal/trace"
)

// discardLogger silences service logs in tests.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// One shared test server (and its pooled instances) across every test in
// the file: the world is deterministic, so sharing costs nothing and saves
// repeated Opens.
var (
	testOnce sync.Once
	testSrv  *Server
	testHTTP *httptest.Server
)

const (
	testScale = 0.05
	testSeed  = 7
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	testOnce.Do(func() {
		testSrv = New(Config{
			DefaultSeed:  testSeed,
			DefaultScale: testScale,
			PoolSize:     2,
			Logger:       discardLogger(),
		})
		testHTTP = httptest.NewServer(testSrv.Handler())
	})
	return testSrv, testHTTP
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// referenceSystem opens the same world outside the service for comparison.
var (
	refOnce sync.Once
	refSys  *jobench.System
)

func referenceSystem(t *testing.T) *jobench.System {
	t.Helper()
	refOnce.Do(func() {
		var err error
		refSys, err = jobench.Open(jobench.Options{Scale: testScale, Seed: testSeed})
		if err != nil {
			t.Fatalf("reference open: %v", err)
		}
	})
	if refSys == nil {
		t.Skip("reference system failed to open in an earlier test")
	}
	return refSys
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v map[string]string
	if err := json.Unmarshal(body, &v); err != nil || v["status"] != "ok" {
		t.Fatalf("body %q (%v)", body, err)
	}
}

func TestQueries(t *testing.T) {
	_, ts := testServer(t)
	resp, body := getBody(t, ts.URL+"/v1/queries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v QueriesResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Count != 113 || len(v.Queries) != 113 || v.Queries[0] != "1a" {
		t.Fatalf("got %d queries, first %q", v.Count, v.Queries[0])
	}
}

func TestOptimizeMatchesFacade(t *testing.T) {
	_, ts := testServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/optimize", PlanRequest{Query: "13d"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v OptimizeResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	sys := referenceSystem(t)
	wantPlan, wantCost, err := sys.Optimize("13d", jobench.PlanOptions{
		Indexes: jobench.PKFK, DisableNestedLoops: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Plan != wantPlan {
		t.Errorf("service plan differs from facade:\n--- service ---\n%s\n--- facade ---\n%s", v.Plan, wantPlan)
	}
	if v.Cost != wantCost {
		t.Errorf("service cost %v, facade %v", v.Cost, wantCost)
	}
}

func TestExecuteAndEstimate(t *testing.T) {
	_, ts := testServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/execute", ExecuteRequest{PlanRequest: PlanRequest{Query: "1a"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status %d: %s", resp.StatusCode, body)
	}
	var ex ExecuteResponse
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	sys := referenceSystem(t)
	want, err := sys.Execute("1a", jobench.RunOptions{
		PlanOptions: jobench.PlanOptions{Indexes: jobench.PKFK, DisableNestedLoops: true},
		Rehash:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Rows != want.Rows || ex.Work != want.Work {
		t.Errorf("service execute (%d rows, %d work), facade (%d rows, %d work)",
			ex.Rows, ex.Work, want.Rows, want.Work)
	}

	resp, body = postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Query: "1a", Estimator: "postgres"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d: %s", resp.StatusCode, body)
	}
	var est EstimateResponse
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatal(err)
	}
	wantCard, err := sys.EstimateCardinality("1a", jobench.EstPostgres)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cardinality != wantCard {
		t.Errorf("service estimate %v, facade %v", est.Cardinality, wantCard)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := testServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/optimize", PlanRequest{Query: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown query: status %d: %s", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("unknown query error body %q", body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/optimize", PlanRequest{Query: "1a", Indexes: "btree"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad knob: status %d: %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, ts.URL+"/v1/experiment/fig99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d: %s", resp.StatusCode, body)
	}
	// NaN parses as a float but must be rejected before it can become an
	// (undeletable) pool key.
	for _, bad := range []string{"NaN", "Inf", "-Inf"} {
		resp, body = getBody(t, ts.URL+"/v1/queries?scale="+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("scale=%s: status %d: %s", bad, resp.StatusCode, body)
		}
	}
}

// TestDeadlineHeaderYields504: a request arriving with an already-expired
// X-Jobench-Deadline gets a prompt 504, whether the work would have been a
// pool wait or an engine execution.
func TestDeadlineHeaderYields504(t *testing.T) {
	_, ts := testServer(t)
	body, err := json.Marshal(ExecuteRequest{PlanRequest: PlanRequest{Query: "13d"}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	deadline.Set(req.Header, time.Now().Add(-time.Second))
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("expired deadline took %v to fail", elapsed)
	}
	// A comfortably future deadline changes nothing.
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	deadline.Set(req.Header, time.Now().Add(10*time.Minute))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("future deadline: status = %d, want 200", resp.StatusCode)
	}
}

// TestPanicRecoveryMiddleware: a handler panic becomes a 500 carrying the
// trace ID — the replica stays up — and is counted in /metrics.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := New(Config{DefaultScale: testScale, Logger: discardLogger()})
	srv.route("GET /v1/panic-test", func(w http.ResponseWriter, r *http.Request) (int, error) {
		panic("boom")
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/v1/panic-test")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "internal error") {
		t.Fatalf("body = %q (%v)", body, err)
	}
	traceID := resp.Header.Get(trace.Header)
	if traceID == "" || !strings.Contains(e.Error, traceID) {
		t.Fatalf("500 body %q does not carry trace ID %q", e.Error, traceID)
	}
	if got := srv.Metrics().Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "jobench_panics_total 1") {
		t.Fatal("/metrics missing jobench_panics_total 1")
	}
	// The server must still answer requests after the panic.
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
}

// TestFaultInjectorWiring: a Config.Fault injector fires on matched routes
// (tagged responses) and surfaces its counters in /metrics; /healthz stays
// clean under a /v1-scoped rule.
func TestFaultInjectorWiring(t *testing.T) {
	inj := fault.New(&fault.Spec{Seed: 1, Rules: []fault.Rule{{Route: "/v1/queries", ErrorRate: 1}}})
	srv := New(Config{DefaultScale: testScale, Fault: inj, Logger: discardLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := getBody(t, ts.URL+"/v1/queries")
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get(fault.Header) != "injected" {
		t.Fatalf("injected error: status %d, header %q", resp.StatusCode, resp.Header.Get(fault.Header))
	}
	resp, _ = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `jobench_fault_injected_total{kind="error"} 1`) {
		t.Fatalf("/metrics missing fault counter:\n%s", metrics)
	}
}

// TestExperimentByteIdenticalAndCached is the acceptance test for the
// experiment surface: /v1/experiment/table1 renders byte-identically to
// the CLI path (both go through experiments.RunExperiment, compared here
// against a directly driven Lab), and the second request is served from
// the report cache.
func TestExperimentByteIdenticalAndCached(t *testing.T) {
	if testing.Short() {
		t.Skip("computes truth for the full workload")
	}
	srv, ts := testServer(t)
	resp, body := getBody(t, ts.URL+"/v1/experiment/table1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	lab, err := experiments.NewLab(experiments.Config{Scale: testScale, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunExperiment(context.Background(), lab, "table1", experiments.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != want {
		t.Errorf("service report differs from CLI rendering:\n--- service ---\n%s\n--- cli ---\n%s", body, want)
	}

	hitsBefore := srv.Metrics().ReportHits.Load()
	resp2, body2 := getBody(t, ts.URL+"/v1/experiment/table1")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request status %d", resp2.StatusCode)
	}
	if string(body2) != string(body) {
		t.Error("cached report differs from the first rendering")
	}
	if srv.Metrics().ReportHits.Load() != hitsBefore+1 {
		t.Error("second request did not hit the report cache")
	}
	// Exactly one computation went through admission control (the cached
	// second request never queued), and it released its units.
	if waiting, inUse, admitted, _ := srv.admit.stats(); waiting != 0 || inUse != 0 || admitted != 1 {
		t.Errorf("admission stats = (%d, %d, %d), want (0, 0, 1)", waiting, inUse, admitted)
	}
}

// TestConcurrentMixedRequests hammers the HTTP surface with mixed
// optimize/execute/estimate/queries traffic; under -race this extends the
// facade's concurrency contract through the full service stack.
func TestConcurrentMixedRequests(t *testing.T) {
	_, ts := testServer(t)
	queries := []string{"1a", "6a", "17e"}
	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qid := queries[w%len(queries)]
			var resp *http.Response
			var body []byte
			switch w % 4 {
			case 0:
				resp, body = postJSON(t, ts.URL+"/v1/optimize", PlanRequest{Query: qid})
			case 1:
				resp, body = postJSON(t, ts.URL+"/v1/execute", ExecuteRequest{PlanRequest: PlanRequest{Query: qid}})
			case 2:
				resp, body = postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Query: qid})
			case 3:
				resp, body = getBody(t, ts.URL+"/v1/queries")
			}
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("worker %d: status %d: %s", w, resp.StatusCode, body)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t)
	// Generate at least one observation first.
	getBody(t, ts.URL+"/healthz")
	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"jobench_requests_total{route=\"/healthz\",code=\"200\"}",
		"jobench_request_seconds_total",
		"jobench_pool_hits_total",
		"jobench_pool_misses_total",
		"jobench_pool_warmups_inflight",
		"jobench_report_cache_hits_total",
		"jobench_report_admission_waiting",
		"jobench_report_admission_in_use",
		"jobench_report_admission_admitted_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

// TestServeGracefulShutdown proves cancelling the serve context stops the
// server promptly and cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	srv := New(Config{
		DefaultSeed: testSeed, DefaultScale: testScale,
		ShutdownGrace: 2 * time.Second,
		Logger:        discardLogger(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within 5s of cancellation")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestAdaptiveFeedbackRoundTrip is the acceptance test for the adaptive
// surface: an adaptive execution records observed cardinalities, so the
// repeat /v1/optimize for the same query is a feedback-cache hit that skips
// the misestimate — and the /metrics exposition reflects all of it.
func TestAdaptiveFeedbackRoundTrip(t *testing.T) {
	_, ts := testServer(t)
	const qid = "16b" // not touched adaptively by any other test

	// Cold adaptive optimize: nothing observed yet.
	resp, body := postJSON(t, ts.URL+"/v1/optimize", PlanRequest{Query: qid, Adaptive: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold optimize status %d: %s", resp.StatusCode, body)
	}
	var cold OptimizeResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.FeedbackHit == nil || cold.Pinned == nil {
		t.Fatal("adaptive optimize omitted feedback fields")
	}
	if *cold.FeedbackHit || *cold.Pinned != 0 {
		t.Fatalf("cold optimize reported a feedback hit: %s", body)
	}

	// Adaptive execution observes intermediates and fills the cache.
	resp, body = postJSON(t, ts.URL+"/v1/execute", ExecuteRequest{PlanRequest: PlanRequest{Query: qid, Adaptive: true}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive execute status %d: %s", resp.StatusCode, body)
	}
	var ex ExecuteResponse
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Replans == nil || ex.FeedbackHit == nil || ex.Pinned == nil {
		t.Fatalf("adaptive execute omitted adaptive fields: %s", body)
	}
	if ex.Rows <= 0 {
		t.Fatalf("adaptive execute returned %d rows", ex.Rows)
	}

	// Adaptive and plain execution must agree on the result.
	resp, body = postJSON(t, ts.URL+"/v1/execute", ExecuteRequest{PlanRequest: PlanRequest{Query: qid}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain execute status %d: %s", resp.StatusCode, body)
	}
	var plain ExecuteResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Rows != ex.Rows {
		t.Errorf("adaptive execute %d rows, plain %d", ex.Rows, plain.Rows)
	}
	if plain.Replans != nil || plain.FeedbackHit != nil {
		t.Errorf("non-adaptive execute leaked adaptive fields: %s", body)
	}

	// Warm adaptive optimize: the cache now holds this fingerprint.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", PlanRequest{Query: qid, Adaptive: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm optimize status %d: %s", resp.StatusCode, body)
	}
	var warm OptimizeResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.FeedbackHit == nil || !*warm.FeedbackHit {
		t.Fatalf("repeat adaptive optimize missed the feedback cache: %s", body)
	}
	if warm.Pinned == nil || *warm.Pinned == 0 {
		t.Fatalf("warm optimize pinned nothing: %s", body)
	}

	// The exposition carries the feedback-cache and replan counters.
	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, name := range []string{
		"feedback_cache_hits_total", "feedback_cache_misses_total",
		"feedback_cache_evictions_total", "feedback_cache_entries",
		"feedback_cache_bytes", "replans_total",
	} {
		if !strings.Contains(text, "jobench_"+name) {
			t.Errorf("metrics exposition missing jobench_%s", name)
		}
	}
	if !strings.Contains(text, "jobench_feedback_cache_hits_total 1") {
		t.Errorf("feedback hit not counted:\n%s", text)
	}
}

// TestTraceMiddleware: traced routes echo X-Jobench-Trace (minting an ID
// when the caller sent none, continuing it otherwise), finished traces
// land in /v1/traces with the request-path spans, and the ops surface
// stays out of the ring.
func TestTraceMiddleware(t *testing.T) {
	srv, ts := testServer(t)

	// Caller-supplied ID: continued, recorded, and carrying spans.
	const want = "0000feedfacebeef"
	data, _ := json.Marshal(map[string]any{"query": "1a"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, want)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(trace.Header); got != want {
		t.Fatalf("trace header %q, want %q", got, want)
	}
	var rec *trace.Record
	for _, r := range srv.Traces().Snapshot(0, "/v1/optimize") {
		if r.TraceID == want {
			rec = &r
			break
		}
	}
	if rec == nil {
		t.Fatalf("trace %s not in /v1/traces ring", want)
	}
	spans := make(map[string]bool)
	for _, sp := range rec.Spans {
		spans[sp.Name] = true
	}
	for _, name := range []string{"pool.lookup", "optimize"} {
		if !spans[name] {
			t.Errorf("trace lacks span %q (has %v)", name, rec.Spans)
		}
	}

	// No caller ID: the middleware mints a valid one.
	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{"query": "1a"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if _, ok := trace.ParseID(resp.Header.Get(trace.Header)); !ok {
		t.Fatalf("minted trace header %q invalid", resp.Header.Get(trace.Header))
	}

	// The trace endpoint itself serves the ring and is untraced.
	resp, body = getBody(t, ts.URL+"/v1/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces status %d", resp.StatusCode)
	}
	var tr trace.Listing
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count == 0 || len(tr.Traces) != tr.Count {
		t.Fatalf("traces response %d/%d", tr.Count, len(tr.Traces))
	}
	for _, r := range tr.Traces {
		if untraced(r.Route) {
			t.Fatalf("untraced route %q found in the ring", r.Route)
		}
	}

	// min_ms filtering: an impossible threshold yields nothing.
	resp, body = getBody(t, ts.URL+"/v1/traces?min_ms=3600000")
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || tr.Count != 0 {
		t.Fatalf("min_ms filter returned %d traces", tr.Count)
	}
}

// TestExplainEndpoint: /v1/explain executes with stats collection; the
// per-node actuals are internally consistent (root actual == executed
// rows) and the rendering shows estimates vs actuals.
func TestExplainEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/explain", map[string]any{"query": "1a"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ExplainResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) == 0 {
		t.Fatal("no analyzed nodes")
	}
	if out.Nodes[0].ID != 0 || out.Nodes[0].ActualRows != out.Rows {
		t.Fatalf("root node %+v disagrees with executed rows %d", out.Nodes[0], out.Rows)
	}
	for _, n := range out.Nodes {
		if n.QError < 1 {
			t.Errorf("node %d: q-error %g below 1", n.ID, n.QError)
		}
	}
	for _, wantStr := range []string{"est", "actual", "q-err"} {
		if !strings.Contains(out.Text, wantStr) {
			t.Errorf("text missing %q:\n%s", wantStr, out.Text)
		}
	}

	// Adaptive + explain is a contradiction: 400.
	resp, _ = postJSON(t, ts.URL+"/v1/explain", map[string]any{"query": "1a", "adaptive": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("explain+adaptive status %d, want 400", resp.StatusCode)
	}

	// The same instrumented run is reachable via the execute knob.
	resp, body = postJSON(t, ts.URL+"/v1/execute", map[string]any{"query": "1a", "explain": "analyze"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute explain=analyze status %d: %s", resp.StatusCode, body)
	}
	var eres ExecuteResponse
	if err := json.Unmarshal(body, &eres); err != nil {
		t.Fatal(err)
	}
	if eres.Analyze == "" || len(eres.Nodes) == 0 {
		t.Fatalf("execute explain=analyze returned no analyze fields: %s", body)
	}
	if eres.Nodes[0].ActualRows != out.Nodes[0].ActualRows {
		t.Fatalf("execute/explain actuals disagree: %d vs %d",
			eres.Nodes[0].ActualRows, out.Nodes[0].ActualRows)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/execute", map[string]any{"query": "1a", "explain": "verbose"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown explain mode status %d, want 400", resp.StatusCode)
	}
}
