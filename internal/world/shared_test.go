package world_test

// These tests pin what sharing one World between views buys: however many
// goroutines ask, through whichever view, each truth store is computed
// once; a failed computation is not latched; and a service replica that
// serves both route families on one key holds one database.

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jobench"
	"jobench/internal/experiments"
	"jobench/internal/query"
	"jobench/internal/service"
	"jobench/internal/truecard"
	"jobench/internal/world"
)

// TestTruthSingleFlightAcrossViews: N goroutines asking for one query's
// truth through a Lab and a System over one world run exactly one DP and
// share its store.
func TestTruthSingleFlightAcrossViews(t *testing.T) {
	hooks := world.CountHooks(t)
	w, err := world.Open(world.Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := jobench.NewSystem(w)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := experiments.NewLabOver(w)
	if err != nil {
		t.Fatal(err)
	}
	if lab.DB != w.DB {
		t.Fatal("the Lab view copied the world's database")
	}

	// A failed computation must not latch: the first DP fails, the retry
	// below runs it again and succeeds.
	boom := errors.New("boom")
	hooks.BeforeCompute = func(context.Context, *query.Graph) error { return boom }
	if _, err := lab.Truth(context.Background(), "1a"); !errors.Is(err, boom) {
		t.Fatalf("failing compute: err = %v, want boom", err)
	}
	// Nor a cancelled one.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hooks.BeforeCompute = func(ctx context.Context, _ *query.Graph) error { return ctx.Err() }
	if _, err := sys.EstimateCardinalityContext(ctx, "1a", jobench.EstTrue); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compute: err = %v, want context.Canceled", err)
	}

	hooks.Reset()
	// Hold the flight open long enough for every waiter to pile up.
	hooks.BeforeCompute = func(context.Context, *query.Graph) error {
		time.Sleep(50 * time.Millisecond)
		return nil
	}
	const callers = 8
	var wg sync.WaitGroup
	stores := make([]*truecard.Store, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				stores[i], errs[i] = lab.Truth(context.Background(), "1a")
			} else {
				stores[i], errs[i] = sys.TruthStore("1a")
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if stores[i] != stores[0] {
			t.Fatalf("caller %d received a different store instance", i)
		}
	}
	if got := hooks.Computes.Load(); got != 1 {
		t.Fatalf("%d truth computations for one query under concurrency, want 1", got)
	}
}

// TestTruthJoinerHonoursItsDeadline: a caller that joins another's truth
// DP stops waiting at its own deadline, while the DP runs on under the
// initiator and the next caller finds the store in memory.
func TestTruthJoinerHonoursItsDeadline(t *testing.T) {
	hooks := world.CountHooks(t)
	w, err := world.Open(world.Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graphs["13d"]
	started := make(chan struct{})
	hooks.BeforeCompute = func(context.Context, *query.Graph) error {
		close(started)
		time.Sleep(2 * time.Second)
		return nil
	}
	initiator := make(chan error, 1)
	go func() {
		_, err := w.Truth(context.Background(), g)
		initiator <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	begin := time.Now()
	if _, err := w.Truth(ctx, g); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("joiner err = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(begin); waited > time.Second {
		t.Fatalf("joiner with a 100ms deadline waited %v", waited)
	}

	if err := <-initiator; err != nil {
		t.Fatalf("initiator: %v", err)
	}
	hooks.BeforeCompute = nil
	if _, err := w.Truth(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if got := hooks.Computes.Load(); got != 1 {
		t.Fatalf("%d truth computations, want 1 (the next caller must hit memory)", got)
	}
}

// TestServiceSharesOneWorld drives a replica through both route families
// on one key — the facade with the "true" estimator, then an experiment —
// and requires one database generation, one DP per query, and every DP
// running against that one database.
func TestServiceSharesOneWorld(t *testing.T) {
	hooks := world.CountHooks(t)
	srv := service.New(service.Config{
		DefaultWorkload: "tpch", DefaultSeed: 7, DefaultScale: 0.05,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"query":"tpch5","estimator":"true"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/optimize: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/v1/experiment/fig3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/experiment/fig3: %d %s", resp.StatusCode, body)
	}

	dbs := hooks.Generated()
	if len(dbs) != 1 {
		t.Fatalf("%d database generations for one key, want 1", len(dbs))
	}
	if got := srv.Metrics().PoolMisses.Load(); got != 1 {
		t.Fatalf("%d pool misses for one world, want 1", got)
	}
	ids := hooks.ComputedIDs()
	if len(ids) != 10 {
		t.Fatalf("truth computed for %d queries, want the 10 TPC-H families", len(ids))
	}
	for id, n := range ids {
		if n != 1 {
			t.Errorf("%s: %d truth computations, want 1", id, n)
		}
	}
	for i, db := range hooks.ComputedOn() {
		if db != dbs[0] {
			t.Fatalf("DP %d ran against a different *storage.Database", i)
		}
	}
}
