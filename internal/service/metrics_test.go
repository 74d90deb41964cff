package service

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"jobench/internal/fault"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current renderer")

// TestMetricsGolden pins the replica's /metrics exposition byte for byte:
// every series the replica can render, from counters set to fixed values.
// -update rewrites testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	// A rule on a route nothing else requests: one request there makes the
	// injector's counters non-zero without touching the route metrics.
	inj := fault.New(&fault.Spec{Seed: 1, Rules: []fault.Rule{{Route: "/v1/injected", ErrorRate: 1}}})
	srv := New(Config{ReplicaID: "replica-7", Fault: inj, Logger: discardLogger()})
	h := srv.Handler()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/injected", nil))

	m := srv.Metrics()
	m.Observe("/v1/optimize", http.StatusOK, 1500*time.Millisecond)
	m.Observe("/v1/optimize", http.StatusOK, 250*time.Millisecond)
	m.Observe("/v1/optimize", http.StatusBadRequest, 2*time.Millisecond)
	m.Observe("/healthz", http.StatusOK, 125*time.Microsecond)
	m.Observe("/v1/experiment/{name}", http.StatusTooManyRequests, 3*time.Millisecond)
	m.PoolObserve("imdb", true)
	m.PoolObserve("imdb", true)
	m.PoolObserve("imdb", false)
	m.PoolObserve("tpch", false)
	m.ReportObserve("tpch", true)
	m.ReportObserve("tpch", false)
	m.PoolEvictions.Add(1)
	m.WarmupsInFlight.Add(2)
	m.Replans.Add(5)
	m.Panics.Add(1)
	if err := srv.admit.acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	defer srv.admit.release(2)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	got := rr.Body.Bytes()
	path := filepath.Join("testdata", "metrics.golden")
	if *updateExposition {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
