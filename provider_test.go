package jobench

// These tests pin the provider memo: each registered query builds its
// provider under an estimator profile once, however many goroutines plan it
// at once, and keeps it for the System's life.

import (
	"context"
	"sync"
	"testing"

	"jobench/internal/cardest"
	"jobench/internal/query"
)

// countingEstimator counts ForQuery calls per query.
type countingEstimator struct {
	cardest.Estimator
	mu     sync.Mutex
	builds map[string]int
}

func (c *countingEstimator) ForQuery(g *query.Graph) cardest.Provider {
	c.mu.Lock()
	c.builds[g.Q.ID]++
	c.mu.Unlock()
	return c.Estimator.ForQuery(g)
}

// countingSystem opens a System whose estimator profiles count their
// provider builds; nothing has asked for a provider yet.
func countingSystem(t *testing.T) (*System, []*countingEstimator) {
	t.Helper()
	sys, err := Open(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]*countingEstimator, len(sys.estimators))
	for i, est := range sys.estimators {
		counters[i] = &countingEstimator{Estimator: est, builds: map[string]int{}}
		sys.estimators[i] = counters[i]
	}
	return sys, counters
}

// TestConcurrentOptimizeBuildsOneProvider starts every Optimize of three
// queries under all five profiles from eight goroutines at once; each
// (profile, query) must be built exactly once and every plan must match the
// serial one.
func TestConcurrentOptimizeBuildsOneProvider(t *testing.T) {
	sys, counters := countingSystem(t)
	queries := []string{"1a", "13d", "29a"}
	ref, _ := countingSystem(t)
	want := map[string]string{}
	for _, q := range queries {
		for _, est := range estimatorNames {
			text, _, err := ref.Optimize(q, PlanOptions{Estimator: est, Indexes: PKFK})
			if err != nil {
				t.Fatal(err)
			}
			want[q+"/"+est] = text
		}
	}

	var start sync.WaitGroup
	start.Add(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			for i := range len(queries) * len(estimatorNames) {
				k := (i + w) % (len(queries) * len(estimatorNames))
				q, est := queries[k/len(estimatorNames)], estimatorNames[k%len(estimatorNames)]
				text, _, err := sys.Optimize(q, PlanOptions{Estimator: est, Indexes: PKFK})
				if err != nil {
					t.Error(err)
				} else if text != want[q+"/"+est] {
					t.Errorf("%s/%s: concurrent plan differs from serial", q, est)
				}
			}
		}(w)
	}
	start.Done()
	wg.Wait()
	for i, c := range counters {
		for _, q := range queries {
			if n := c.builds[q]; n != 1 {
				t.Errorf("%s/%s: %d provider builds, want 1", estimatorNames[i], q, n)
			}
		}
		if len(c.builds) != len(queries) {
			t.Errorf("%s: built providers for %v, want only %v", estimatorNames[i], c.builds, queries)
		}
	}
}

// TestAddQueryGetsItsOwnProvider registers 13d's SQL under a new id: the new
// query builds a provider of its own, from its own graph, and plans exactly
// as 13d does.
func TestAddQueryGetsItsOwnProvider(t *testing.T) {
	sys, counters := countingSystem(t)
	sql, err := sys.SQL("13d")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddQuery("mine", sql); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var provs [2]cardest.Provider
	for i, id := range []string{"13d", "mine"} {
		q, err := sys.query(id)
		if err != nil {
			t.Fatal(err)
		}
		if provs[i], err = sys.provider(ctx, q, EstHyPer); err != nil {
			t.Fatal(err)
		}
		again, _ := sys.provider(ctx, q, EstHyPer)
		if again != provs[i] {
			t.Errorf("%s: a second call returned another provider", id)
		}
	}
	if provs[0] == provs[1] {
		t.Error("the added query shares 13d's provider")
	}
	hyper := counters[4]
	if hyper.builds["13d"] != 1 || hyper.builds["mine"] != 1 {
		t.Errorf("HyPer builds %v, want one each for 13d and mine", hyper.builds)
	}
	a, costA, err := sys.Optimize("13d", PlanOptions{Estimator: EstHyPer, Indexes: PKFK})
	if err != nil {
		t.Fatal(err)
	}
	b, costB, err := sys.Optimize("mine", PlanOptions{Estimator: EstHyPer, Indexes: PKFK})
	if err != nil {
		t.Fatal(err)
	}
	if a != b || costA != costB {
		t.Errorf("mine plans as\n%s(cost %v), 13d as\n%s(cost %v)", b, costB, a, costA)
	}
}

// TestTrueProviderReadsTheTruthStore: EstTrue is not memoized; its provider
// reads the world's truth store, and no estimator profile is asked.
func TestTrueProviderReadsTheTruthStore(t *testing.T) {
	sys, counters := countingSystem(t)
	q, err := sys.query("1a")
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.provider(context.Background(), q, EstTrue)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.TruthStore("1a")
	if err != nil {
		t.Fatal(err)
	}
	tp, ok := p.(cardest.True)
	if !ok || tp.Store != st {
		t.Fatalf("EstTrue provider %#v, want cardest.True over the world's store", p)
	}
	for i, c := range counters {
		if len(c.builds) != 0 {
			t.Errorf("%s: built %v for EstTrue", estimatorNames[i], c.builds)
		}
	}
}

// TestOptimizeAllocations bounds what one facade Optimize of 29a (17
// relations, the largest JOB query) allocates once its provider exists: the
// plan space, the pricer, DP's copied-out tree and the EXPLAIN text: 12
// objects when measured, up to 29 under -race, whose pool drops some puts.
// Rebuilding the provider per call, as the facade once did, made it 320
// (PostgreSQL) and 368 (HyPer).
func TestOptimizeAllocations(t *testing.T) {
	sys, err := Open(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range []string{EstPostgres, EstHyPer} {
		opts := PlanOptions{Estimator: est, Indexes: PKFK, DisableNestedLoops: true}
		optimize := func() {
			if _, _, err := sys.Optimize("29a", opts); err != nil {
				t.Fatal(err)
			}
		}
		optimize()
		const bound = 64
		if n := testing.AllocsPerRun(10, optimize); n > bound {
			t.Errorf("%s: Optimize(29a) allocates %v objects per call, want at most %d", est, n, bound)
		}
	}
}
