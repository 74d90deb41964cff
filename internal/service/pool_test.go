package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jobench"
	"jobench/internal/trace"
	"jobench/internal/workload"
	"jobench/internal/world"
)

// sharedWorld is one real (tiny) world reused by every fake opener: pool
// tests exercise pooling, not Open. The views the pool builds over it are
// real, and cheap after the first (the world memoizes its statistics and
// index sets).
var (
	sharedWorldOnce sync.Once
	sharedWorld     *world.World
)

func tinyWorld(t *testing.T) *world.World {
	t.Helper()
	sharedWorldOnce.Do(func() {
		var err error
		sharedWorld, err = world.Open(world.Options{Scale: 0.02, Seed: 7})
		if err != nil {
			t.Fatalf("open tiny world: %v", err)
		}
	})
	if sharedWorld == nil {
		t.Skip("tiny world failed to open in an earlier test")
	}
	return sharedWorld
}

func countingPool(t *testing.T, capacity int, delay time.Duration) (*Pool, *atomic.Int64) {
	t.Helper()
	w := tinyWorld(t)
	m := NewMetrics()
	p := NewPool(Config{PoolSize: capacity}, m)
	opens := new(atomic.Int64)
	p.openWorld = func(workload.Key) (*world.World, error) {
		opens.Add(1)
		time.Sleep(delay)
		return w, nil
	}
	return p, opens
}

// TestPoolSingleFlight is the acceptance test for cold-start collapsing: N
// concurrent cold requests for one key perform exactly one Open.
func TestPoolSingleFlight(t *testing.T) {
	p, opens := countingPool(t, 2, 100*time.Millisecond)
	key := workload.Key{Workload: "imdb", Seed: 7, Scale: 0.02}

	const callers = 8
	var wg sync.WaitGroup
	systems := make([]*jobench.System, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, err := p.System(context.Background(), key)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			systems[i] = sys
		}(i)
	}
	wg.Wait()
	if got := opens.Load(); got != 1 {
		t.Fatalf("%d Opens for one cold key under concurrency, want exactly 1", got)
	}
	for i, sys := range systems {
		if sys != systems[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	// A warm lookup is a pool hit, not another Open.
	if _, err := p.System(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if got := opens.Load(); got != 1 {
		t.Fatalf("warm lookup re-opened (%d Opens)", got)
	}
	if hits := p.metrics.PoolHits.Load(); hits == 0 {
		t.Fatal("warm lookup did not count as a pool hit")
	}
}

// TestPoolLRUEviction pins the eviction policy: capacity is enforced and
// the least recently *used* key is the victim.
func TestPoolLRUEviction(t *testing.T) {
	p, opens := countingPool(t, 2, 0)
	a := workload.Key{Workload: "imdb", Seed: 1, Scale: 0.02}
	b := workload.Key{Workload: "imdb", Seed: 2, Scale: 0.02}
	c := workload.Key{Workload: "imdb", Seed: 3, Scale: 0.02}

	for _, k := range []workload.Key{a, b} {
		if _, err := p.System(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU victim, then insert c.
	if _, err := p.System(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.System(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if got := p.Len(); got != 2 {
		t.Fatalf("pool holds %d instances, capacity 2", got)
	}
	if got := p.metrics.PoolEvictions.Load(); got != 1 {
		t.Fatalf("%d evictions, want 1", got)
	}
	openedSoFar := opens.Load()
	// a must still be resident (touched), b must have been evicted.
	if _, err := p.System(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if got := opens.Load(); got != openedSoFar {
		t.Fatal("a was evicted despite being recently used")
	}
	if _, err := p.System(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if got := opens.Load(); got != openedSoFar+1 {
		t.Fatal("b was still resident; LRU eviction picked the wrong victim")
	}
}

// TestPoolErrorNotCached proves a failed construction does not poison the
// key.
func TestPoolErrorNotCached(t *testing.T) {
	p, opens := countingPool(t, 2, 0)
	key := workload.Key{Workload: "imdb", Seed: 9, Scale: 0.02}
	failures := 0
	realOpen := p.openWorld
	p.openWorld = func(k workload.Key) (*world.World, error) {
		if failures == 0 {
			failures++
			return nil, errBoom
		}
		return realOpen(k)
	}
	if _, err := p.System(context.Background(), key); err == nil {
		t.Fatal("first open should fail")
	}
	sys, err := p.System(context.Background(), key)
	if err != nil || sys == nil {
		t.Fatalf("retry after failure: (%v, %v)", sys, err)
	}
	if got := opens.Load(); got != 1 {
		t.Fatalf("retry performed %d real Opens, want 1", got)
	}
}

// TestPoolBuildsEachViewOnce: a System request and two concurrent
// different reports on one cold key open the world once and build the Lab
// once, and never replace the stored entry.
func TestPoolBuildsEachViewOnce(t *testing.T) {
	p, opens := countingPool(t, 2, 0)
	srv := New(Config{Logger: discardLogger()})
	srv.pool = p
	key := workload.Key{Workload: "imdb", Seed: 7, Scale: 0.02}
	tr := trace.New(trace.NewID(), "test")
	ctx := trace.NewContext(context.Background(), tr)

	if _, err := p.System(ctx, key); err != nil {
		t.Fatal(err)
	}
	stored, _ := p.entries.get(key)
	var wg sync.WaitGroup
	for _, name := range []string{"table1", "fig3"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.report(ctx, reportKey{key: key, name: name}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	wg.Wait()
	if got := opens.Load(); got != 1 {
		t.Fatalf("%d world opens, want 1", got)
	}
	spans := make(map[string]int)
	for _, sp := range tr.Spans() {
		spans[sp.Name]++
	}
	if spans["system.open"] != 1 || spans["lab.open"] != 1 {
		t.Fatalf("spans %v, want one system.open and one lab.open", spans)
	}
	if now, _ := p.entries.get(key); now != stored {
		t.Fatal("building the Lab replaced the stored entry")
	}
}

var errBoom = &poolError{"boom"}

type poolError struct{ msg string }

func (e *poolError) Error() string { return e.msg }
