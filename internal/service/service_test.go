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
	"jobench/internal/serving"
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
	// adaptive belongs to /v1/execute only: planning never consults
	// earlier executions.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", map[string]any{"query": "1a", "adaptive": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("adaptive optimize: status %d: %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, ts.URL+"/v1/experiment/fig99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d: %s", resp.StatusCode, body)
	}
	// samples is bounded: a huge count would pin admission units for as
	// long as the detached sweep runs. Rejected before any world opens.
	for _, bad := range []string{"-1", "x", fmt.Sprint(maxSamples + 1), "1000000000"} {
		resp, body = getBody(t, ts.URL+"/v1/experiment/fig9?samples="+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("samples=%s: status %d: %s", bad, resp.StatusCode, body)
		}
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
	srv.mux.Handle("GET /v1/panic-test", func(w http.ResponseWriter, r *http.Request) (int, error) {
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

// TestReplicaInfoMetric: a configured ReplicaID shows up in /metrics.
func TestReplicaInfoMetric(t *testing.T) {
	ts := httptest.NewServer(New(Config{ReplicaID: "replica-7", Logger: discardLogger()}).Handler())
	defer ts.Close()
	_, body := getBody(t, ts.URL+"/metrics")
	if want := `jobench_replica_info{replica="replica-7"} 1`; !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q", want)
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

// serveFaulted runs a replica whose /v1/execute misbehaves as rule says
// on a loopback listener, opens its default world, and returns the base
// URL, the serve cancel and Serve's result channel.
func serveFaulted(t *testing.T, rule fault.Rule, grace time.Duration) (string, context.CancelFunc, chan error) {
	t.Helper()
	rule.Route = "/v1/execute"
	srv := New(Config{
		DefaultSeed: testSeed, DefaultScale: testScale,
		ShutdownGrace: grace,
		Fault:         fault.New(&fault.Spec{Seed: 1, Rules: []fault.Rule{rule}}),
		Logger:        discardLogger(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	if resp, body := getBody(t, base+"/v1/queries"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
	}
	return base, cancel, served
}

// TestServeDrainsInFlight: cancelling the serve context stops accepting
// but lets an in-flight /v1/execute finish within ShutdownGrace; the
// client gets its full 200 answer, and Serve then returns cleanly.
func TestServeDrainsInFlight(t *testing.T) {
	base, cancel, served := serveFaulted(t, fault.Rule{Latency: 300 * time.Millisecond}, 3*time.Second)
	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/execute", "application/json", strings.NewReader(`{"query":"1a"}`))
		if err != nil {
			results <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		results <- result{status: resp.StatusCode, body: body, err: err}
	}()

	time.Sleep(100 * time.Millisecond) // the request is inside the injected delay
	cancel()                           // "SIGTERM"

	r := <-results
	if r.err != nil {
		t.Fatalf("in-flight execute failed during drain: %v", r.err)
	}
	var ex ExecuteResponse
	if r.status != http.StatusOK || json.Unmarshal(r.body, &ex) != nil || ex.Rows <= 0 {
		t.Fatalf("in-flight execute during drain: status %d, body %q", r.status, r.body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after a clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned after the drain")
	}
}

// TestServeCancelsStragglers: a /v1/execute still running when
// ShutdownGrace runs out is cancelled rather than waited for: Serve runs
// out the grace period, then returns promptly — cleanly, since the
// straggler honoured its cancellation.
func TestServeCancelsStragglers(t *testing.T) {
	const grace = time.Second
	base, cancel, served := serveFaulted(t, fault.Rule{HangRate: 1}, grace)
	go func() {
		resp, err := http.Post(base+"/v1/execute", "application/json", strings.NewReader(`{"query":"1a"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()

	time.Sleep(100 * time.Millisecond) // the request hangs until cancelled
	start := time.Now()
	cancel()
	select {
	case err := <-served:
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("Serve returned %v; the cancelled straggler did return", err)
		}
		if elapsed < grace {
			t.Fatalf("Serve returned after %v: the straggler was cut before its %v grace", elapsed, grace)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("drain of a stuck execute took %v, grace is %v", elapsed, grace)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned with a stuck in-flight execute")
	}
}

// TestAdaptiveExecuteRoundTrip is the acceptance test for the adaptive
// surface: an adaptive /v1/execute reports its replans, returns the rows a
// plain execution returns, and plans cold every time, so a repeat costs
// exactly the same work — and the /metrics exposition counts the replans.
func TestAdaptiveExecuteRoundTrip(t *testing.T) {
	_, ts := testServer(t)
	const qid = "16b" // not touched adaptively by any other test

	adaptive := func() (ExecuteResponse, map[string]json.RawMessage) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/execute", ExecuteRequest{PlanRequest: PlanRequest{Query: qid}, Adaptive: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("adaptive execute status %d: %s", resp.StatusCode, body)
		}
		var ex ExecuteResponse
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &ex); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		return ex, fields
	}
	ex, fields := adaptive()
	if ex.Replans == nil {
		t.Fatalf("adaptive execute omitted replans: %v", fields)
	}
	for _, gone := range []string{"feedback_hit", "pinned"} {
		if _, ok := fields[gone]; ok {
			t.Errorf("adaptive execute reported %q", gone)
		}
	}
	if ex.Rows <= 0 {
		t.Fatalf("adaptive execute returned %d rows", ex.Rows)
	}

	// Adaptive and plain execution must agree on the result.
	resp, body := postJSON(t, ts.URL+"/v1/execute", ExecuteRequest{PlanRequest: PlanRequest{Query: qid}})
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
	if plain.Replans != nil {
		t.Errorf("non-adaptive execute leaked adaptive fields: %s", body)
	}

	// Nothing observed outlives a request: the repeat plans cold again.
	again, _ := adaptive()
	if again.Work != ex.Work || again.Rows != ex.Rows || *again.Replans != *ex.Replans || again.Plan != ex.Plan {
		t.Errorf("repeat adaptive execute differs: work %d rows %d replans %d, first work %d rows %d replans %d",
			again.Work, again.Rows, *again.Replans, ex.Work, ex.Rows, *ex.Replans)
	}

	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	want := fmt.Sprintf("jobench_replans_total %d\n", *ex.Replans+*again.Replans)
	if !strings.Contains(string(body), want) {
		t.Errorf("metrics exposition missing %q:\n%s", strings.TrimSpace(want), body)
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
	var tr serving.Listing
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count == 0 || len(tr.Traces) != tr.Count {
		t.Fatalf("traces response %d/%d", tr.Count, len(tr.Traces))
	}
	for _, r := range tr.Traces {
		if r.Route == "/healthz" || r.Route == "/metrics" || r.Route == "/v1/traces" {
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
	if root := out.Nodes[0]; root.ID != 0 || root.ActualRows == nil || *root.ActualRows != out.Rows {
		t.Fatalf("root node %+v disagrees with executed rows %d", root, out.Rows)
	}
	probed := 0
	for _, n := range out.Nodes {
		if n.Probed != (n.ActualRows == nil) || n.Probed != (n.QError == nil) {
			t.Errorf("node %d: probed %v but actual_rows/q_error presence disagrees", n.ID, n.Probed)
		}
		if n.Probed {
			probed++
		} else if *n.QError < 1 {
			t.Errorf("node %d: q-error %g below 1", n.ID, *n.QError)
		}
	}
	// 1a under the default PK+FK design probes indexes, so the marked
	// leaves are exercised too.
	if probed == 0 {
		t.Error("no index-probed leaves in 1a's PK+FK plan")
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

	// /v1/explain is the one EXPLAIN ANALYZE route: /v1/execute knows no
	// "explain" field.
	resp, body = postJSON(t, ts.URL+"/v1/execute", map[string]any{"query": "1a", "explain": "analyze"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("execute with explain: status %d, want 400: %s", resp.StatusCode, body)
	}
}
