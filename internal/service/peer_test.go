package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"jobench/internal/router"
	"jobench/internal/trace"
	"jobench/internal/world"
)

// newPeerTestServer builds a service whose world construction is stubbed
// to count invocations — peer-fill tests must prove a fill happened INSTEAD
// of a computation, and the cheapest proof is "openWorld was never called".
func newPeerTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	cfg.Logger = discardLogger()
	s := New(cfg)
	var labBuilds atomic.Int64
	s.pool.openWorld = func(Key) (*world.World, error) {
		labBuilds.Add(1)
		return nil, fmt.Errorf("test server must not compute reports locally")
	}
	h := httptest.NewServer(s.Handler())
	t.Cleanup(h.Close)
	return s, h, &labBuilds
}

// seedOwnedBy finds a seed whose report the given peer owns on the ring.
func seedOwnedBy(t *testing.T, peers []string, owner string, scale float64) int64 {
	t.Helper()
	ring := router.NewRingFromConfig(peers)
	for seed := int64(1); seed < 2000; seed++ {
		if ring.Owner(router.AffinityKey("imdb", seed, scale)) == owner {
			return seed
		}
	}
	t.Fatal("no seed owned by the requested peer in 2000 tries")
	return 0
}

// TestPeerFill: replica B, asked for a report whose world replica A owns,
// serves A's cached rendering byte-for-byte without constructing a Lab.
func TestPeerFill(t *testing.T) {
	const scale = 0.25
	// Build A first on a placeholder topology; its real URL exists only
	// after the httptest server starts, so topology is patched afterwards.
	a, aHTTP, aLabs := newPeerTestServer(t, Config{DefaultSeed: 1, DefaultScale: scale})
	b, bHTTP, bLabs := newPeerTestServer(t, Config{DefaultSeed: 1, DefaultScale: scale})
	peers := []string{aHTTP.URL, bHTTP.URL}
	a.peers = newPeerSet(Config{Peers: peers, SelfURL: aHTTP.URL})
	b.peers = newPeerSet(Config{Peers: peers, SelfURL: bHTTP.URL})

	seed := seedOwnedBy(t, peers, aHTTP.URL, scale)
	const reportText = "=== table1 ===\nthe canonical rendering\n"
	k := reportKey{key: a.key("", seed, scale), name: "table1"}
	a.reports.put(k, reportText)

	// The request carries a trace ID so the fill's propagation is
	// checkable below: B's peek at A must ride the same trace.
	const traceID = "00000000cafef00d"
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/experiment/table1?seed=%d&scale=%g", bHTTP.URL, seed, scale), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if string(body) != reportText {
		t.Fatalf("peer-filled report differs:\ngot  %q\nwant %q", body, reportText)
	}
	if n := aLabs.Load() + bLabs.Load(); n != 0 {
		t.Fatalf("%d Lab constructions; peer-fill must not compute", n)
	}
	if b.metrics.PeerFillHits.Load() != 1 {
		t.Fatalf("PeerFillHits = %d, want 1", b.metrics.PeerFillHits.Load())
	}

	// One trace ID end to end: B recorded the experiment request under the
	// caller's ID (with a peer.fill span), and A's ring shows the peek B
	// made under the SAME ID — the cross-process propagation contract.
	var bRec *trace.Record
	for _, r := range b.Traces().Snapshot(0, "") {
		if r.TraceID == traceID {
			bRec = &r
			break
		}
	}
	if bRec == nil {
		t.Fatalf("trace %s missing from B's ring", traceID)
	}
	hasFill := false
	for _, sp := range bRec.Spans {
		if sp.Name == "peer.fill" {
			hasFill = true
		}
	}
	if !hasFill {
		t.Fatalf("B's trace lacks the peer.fill span: %+v", bRec.Spans)
	}
	foundOnA := false
	for _, r := range a.Traces().Snapshot(0, "") {
		if r.TraceID == traceID {
			foundOnA = true
			if r.Route != "/v1/report-cache/{name}" {
				t.Fatalf("A recorded trace %s under route %q", traceID, r.Route)
			}
		}
	}
	if !foundOnA {
		t.Fatalf("peek did not carry trace %s to A's ring", traceID)
	}

	// The fill is cached locally: a second request is a plain cache hit,
	// no second peek (A going away must not matter).
	aHTTP.Close()
	resp, err = http.Get(fmt.Sprintf("%s/v1/experiment/table1?seed=%d&scale=%g", bHTTP.URL, seed, scale))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != reportText {
		t.Fatalf("cached re-read failed: status %d body %q", resp.StatusCode, body)
	}
}

// TestPeerFillColdOwner: when the owner has nothing cached, the replica
// falls through to local computation (here: the stubbed error) — a cold
// fleet must not loop peeks.
func TestPeerFillColdOwner(t *testing.T) {
	const scale = 0.25
	a, aHTTP, _ := newPeerTestServer(t, Config{DefaultSeed: 1, DefaultScale: scale})
	b, bHTTP, bLabs := newPeerTestServer(t, Config{DefaultSeed: 1, DefaultScale: scale})
	_ = a
	peers := []string{aHTTP.URL, bHTTP.URL}
	b.peers = newPeerSet(Config{Peers: peers, SelfURL: bHTTP.URL})

	seed := seedOwnedBy(t, peers, aHTTP.URL, scale)
	resp, err := http.Get(fmt.Sprintf("%s/v1/experiment/table1?seed=%d&scale=%g", bHTTP.URL, seed, scale))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The stub Lab fails, so the request errors — but it must have TRIED
	// locally after the peek missed.
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("expected local-compute failure from the stub, got 200: %s", body)
	}
	if bLabs.Load() != 1 {
		t.Fatalf("world constructions = %d, want 1 (local fallback)", bLabs.Load())
	}
	if b.metrics.PeerFillMisses.Load() != 1 {
		t.Fatalf("PeerFillMisses = %d, want 1", b.metrics.PeerFillMisses.Load())
	}
}

// TestReportPeekEndpoint: the peek endpoint serves only what is cached —
// 404 on a cold key, 200 with the exact bytes on a warm one, and the
// samples normalization matches handleExperiment's.
func TestReportPeekEndpoint(t *testing.T) {
	s, h, _ := newPeerTestServer(t, Config{DefaultSeed: 1, DefaultScale: 0.25})

	resp, err := http.Get(h.URL + "/v1/report-cache/table1?seed=3&scale=0.25")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold peek status %d, want 404", resp.StatusCode)
	}

	// fig9's samples default (0 → 10000) must normalize identically on
	// both surfaces, or a fill could never match a computed key.
	k := reportKey{key: s.key("", 3, 0.25), name: "fig9", samples: 10000}
	s.reports.put(k, "fig9 text")
	resp, err = http.Get(h.URL + "/v1/report-cache/fig9?seed=3&scale=0.25&samples=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "fig9 text" {
		t.Fatalf("warm peek: status %d body %q", resp.StatusCode, body)
	}
}

// TestReplicaInfoMetric: a configured ReplicaID shows up in /metrics.
func TestReplicaInfoMetric(t *testing.T) {
	_, h, _ := newPeerTestServer(t, Config{DefaultSeed: 1, DefaultScale: 0.25, ReplicaID: "replica-7"})
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `jobench_replica_info{replica="replica-7"} 1`; !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q", want)
	}
	if !strings.Contains(string(body), "jobench_peer_fill_hits_total") {
		t.Fatal("/metrics missing peer-fill counters")
	}
}
