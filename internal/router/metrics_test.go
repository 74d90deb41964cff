package router

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current renderer")

// TestMetricsGolden pins the router's /metrics exposition byte for byte,
// with the replica state set in-package to fixed values. The replicas are
// never contacted: no health loop runs without Serve. -update rewrites
// testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	urls := []string{"http://10.0.0.1:8081", "http://10.0.0.2:8081", "http://10.0.0.3:8081"}
	s := newTestRouter(t, Config{Replicas: urls})

	a, b, c := s.replicas[urls[0]], s.replicas[urls[1]], s.replicas[urls[2]]
	a.requests[http.StatusOK] = 40
	a.requests[http.StatusInternalServerError] = 3
	a.requests[0] = 1
	a.seconds = 1.25
	a.retries = 2
	a.transitions = 2
	a.throttled.Store(true)
	a.slots <- struct{}{}
	b.up.Store(false)
	b.markDowns = 1
	b.requests[http.StatusOK] = 7
	b.seconds = 0.5
	c.slots <- struct{}{}
	c.slots <- struct{}{}
	s.noReplica.Add(1)
	s.deadlineExpired.Add(2)
	s.budgetDenied.Add(3)

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
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
