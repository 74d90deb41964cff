package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"jobench/internal/deadline"
	"jobench/internal/trace"
)

// testLogger routes loadgen diagnostics into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// fakeService mimics the /v1 surface well enough to load-test: it lists
// the queries of the world seed=7, scale=0.1, answers every class for that
// world only, and counts requests per path.
func fakeService(t *testing.T) (*httptest.Server, map[string]*atomic.Int64) {
	t.Helper()
	counts := map[string]*atomic.Int64{}
	for _, path := range classPaths {
		counts[path] = &atomic.Int64{}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/queries" {
			if r.URL.RawQuery != "scale=0.1&seed=7" {
				http.Error(w, "wrong world "+r.URL.RawQuery, http.StatusBadRequest)
				return
			}
			_ = json.NewEncoder(w).Encode(map[string]any{
				"count": 3, "queries": []string{"1a", "13d", "6f"},
			})
			return
		}
		n, ok := counts[r.URL.Path]
		if !ok {
			http.Error(w, "unexpected path "+r.URL.Path, http.StatusNotFound)
			return
		}
		var body struct {
			Query string  `json:"query"`
			Seed  int64   `json:"seed"`
			Scale float64 `json:"scale"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Query == "" ||
			body.Seed != 7 || body.Scale != 0.1 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		n.Add(1)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	t.Cleanup(srv.Close)
	return srv, counts
}

// TestRunMixedLoad drives a short real run against one world: the query
// list is fetched for that world, every weighted class is issued with the
// world in its body, results aggregate, and the class counts sum to the
// total.
func TestRunMixedLoad(t *testing.T) {
	srv, counts := fakeService(t)
	res, err := Run(context.Background(), Config{
		Target:      srv.URL,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		Seed:        7,
		Mix: map[string]int{
			ClassOptimize: 3, ClassExecute: 1, ClassEstimate: 2,
		},
		WorldSeed: 7,
		Scale:     0.1,
		Logger:    testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != Schema {
		t.Fatalf("schema %q, want %q", res.Schema, Schema)
	}
	if res.Total.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if res.Total.Errors != 0 {
		t.Fatalf("%d errors against a healthy backend", res.Total.Errors)
	}
	var sum int64
	for class, cr := range res.Classes {
		if cr.Requests == 0 {
			t.Errorf("class %s: zero requests despite positive weight", class)
		}
		if cr.Latency.P50 <= 0 || cr.Latency.P99 < cr.Latency.P50 {
			t.Errorf("class %s: implausible latencies %+v", class, cr.Latency)
		}
		// Every class with traffic carries slow-trace exemplars: valid
		// trace IDs, slowest first.
		if len(cr.SlowTraces) == 0 || len(cr.SlowTraces) > exemplarsPerClass {
			t.Errorf("class %s: %d slow-trace exemplars", class, len(cr.SlowTraces))
		}
		for i, e := range cr.SlowTraces {
			if _, ok := trace.ParseID(e.TraceID); !ok {
				t.Errorf("class %s: exemplar %d has invalid trace id %q", class, i, e.TraceID)
			}
			if i > 0 && e.LatencyMS > cr.SlowTraces[i-1].LatencyMS {
				t.Errorf("class %s: exemplars not sorted slowest-first: %+v", class, cr.SlowTraces)
			}
		}
		sum += cr.Requests
	}
	if sum != res.Total.Requests {
		t.Fatalf("class requests sum %d != total %d", sum, res.Total.Requests)
	}
	for path, n := range counts {
		if n.Load() == 0 {
			t.Errorf("backend saw no %s requests; every class must fire", path)
		}
	}
	if res.Total.ThroughputRPS <= 0 {
		t.Fatal("throughput not computed")
	}
	// The report must marshal (it becomes the chaos-fleet artifact).
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

// TestRunCountsErrors: 4xx/5xx responses count as errors but still record
// latency.
func TestRunCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/queries" {
			_ = json.NewEncoder(w).Encode(map[string]any{"queries": []string{"1a"}})
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	res, err := Run(context.Background(), Config{
		Target:      srv.URL,
		Duration:    100 * time.Millisecond,
		Concurrency: 2,
		Mix:         map[string]int{ClassOptimize: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Requests == 0 || res.Total.Errors != res.Total.Requests {
		t.Fatalf("requests=%d errors=%d: every 500 must count as an error",
			res.Total.Requests, res.Total.Errors)
	}
}

// TestRunDeterministicChoices: the same seed produces the same class
// sequence (pickClass is driven only by the seeded rng).
func TestRunDeterministicChoices(t *testing.T) {
	classes, weights, total := normalizeMix(DefaultMix)
	seq := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		out := make([]string, 50)
		for i := range out {
			out[i] = pickClass(rng, classes, weights, total)
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("choice %d differs for equal seeds: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRunRejectsBadConfig: no target, an all-zero mix and an unknown
// class are startup errors, not runtime surprises.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty target must fail")
	}
	srv, _ := fakeService(t)
	if _, err := Run(context.Background(), Config{
		Target: srv.URL, Mix: map[string]int{ClassOptimize: 0},
	}); err == nil {
		t.Fatal("zero-weight mix must fail")
	}
	if _, err := Run(context.Background(), Config{
		Target: srv.URL, Mix: map[string]int{"experiment": 1},
	}); err == nil {
		t.Fatal("unknown class must fail")
	}
}

// TestFailureClassification: timeouts, sheds, server errors and deadline
// overruns land in their own buckets (with the deadline header stamped on
// every request), so a chaos run can assert on each class separately.
func TestFailureClassification(t *testing.T) {
	var n atomic.Int64
	var sawDeadline atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/queries" {
			_ = json.NewEncoder(w).Encode(map[string]any{"queries": []string{"1a"}})
			return
		}
		if r.Header.Get(deadline.Header) != "" {
			sawDeadline.Store(true)
		}
		io.Copy(io.Discard, r.Body)
		switch n.Add(1) % 4 {
		case 0: // success
			fmt.Fprint(w, `{"ok":true}`)
		case 1: // shed
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case 2: // server error
			w.WriteHeader(http.StatusInternalServerError)
		case 3: // hang past the request deadline -> client-side timeout + overrun
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
			}
		}
	}))
	t.Cleanup(srv.Close)

	res, err := Run(context.Background(), Config{
		Target:         srv.URL,
		Duration:       900 * time.Millisecond,
		Concurrency:    4,
		Seed:           11,
		Mix:            map[string]int{ClassOptimize: 1},
		RequestTimeout: 150 * time.Millisecond,
		DeadlineGrace:  50 * time.Millisecond,
		Logger:         testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawDeadline.Load() {
		t.Fatal("no request carried the deadline header")
	}
	f := res.Total.Failures
	if f[FailShed] == 0 || f[FailServer] == 0 || f[FailTimeout] == 0 {
		t.Fatalf("failure classes not all populated: %v", f)
	}
	var sum int64
	for _, v := range f {
		sum += v
	}
	if sum != res.Total.Errors {
		t.Fatalf("failure classes sum to %d, errors = %d", sum, res.Total.Errors)
	}
	if res.Total.ErrorRate <= 0 || res.Total.ErrorRate > 1 {
		t.Fatalf("error rate %v out of range", res.Total.ErrorRate)
	}
	// The hung responses are cut client-side at RequestTimeout, well inside
	// the grace window — they count as timeouts, NOT as overruns (an
	// overrun means the latency itself escaped the deadline).
	if res.Total.DeadlineOverruns != 0 {
		t.Fatalf("deadline overruns = %d, want 0: the client enforces its own deadline", res.Total.DeadlineOverruns)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}
