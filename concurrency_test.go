package jobench

// This test pins the System's concurrency contract: every method is safe
// for concurrent use (the service layer serves one shared System to many
// requests at once). It is deliberately small so the -race -short CI job
// runs it; the compute-once half of the contract is pinned beside the
// hooks, in internal/world.

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMixedUse hammers one shared System with mixed
// Optimize/Execute/Estimate/metadata calls from many goroutines, including
// AddQuery racing the read paths. Run under -race this is the proof of the
// documented "safe for concurrent use" contract.
func TestConcurrentMixedUse(t *testing.T) {
	sys, err := Open(Options{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"1a", "6a", "17e"}

	// Serial reference results to compare the concurrent runs against.
	wantPlan := make(map[string]string)
	wantRows := make(map[string]int64)
	for _, qid := range queries {
		text, _, err := sys.Optimize(qid, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantPlan[qid] = text
		res, err := sys.Execute(qid, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantRows[qid] = res.Rows
	}

	const workers = 8
	const iters = 4
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qid := queries[(w+i)%len(queries)]
				switch w % 4 {
				case 0:
					text, _, err := sys.Optimize(qid, PlanOptions{})
					if err != nil {
						errc <- err
					} else if text != wantPlan[qid] {
						errc <- fmt.Errorf("%s: concurrent plan differs from serial", qid)
					}
				case 1:
					res, err := sys.Execute(qid, RunOptions{})
					if err != nil {
						errc <- err
					} else if res.Rows != wantRows[qid] {
						errc <- fmt.Errorf("%s: concurrent rows %d, serial %d", qid, res.Rows, wantRows[qid])
					}
				case 2:
					if _, err := sys.EstimateCardinality(qid, EstPostgres); err != nil {
						errc <- err
					}
					if _, err := sys.TrueCardinality(qid); err != nil {
						errc <- err
					}
				case 3:
					// Registry writes racing the readers above.
					id := fmt.Sprintf("user-%d-%d", w, i)
					if err := sys.AddQuery(id, "SELECT * FROM title t WHERE t.production_year > 1990"); err != nil {
						errc <- err
					}
					if _, _, err := sys.Optimize(id, PlanOptions{}); err != nil {
						errc <- err
					}
					if len(sys.QueryIDs()) == 0 {
						errc <- fmt.Errorf("QueryIDs empty during concurrent use")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
