package experiments

import (
	"context"
	"testing"

	"jobench/internal/query"
)

// withParallel runs f with the shared lab's worker-pool size forced to n,
// restoring the previous setting afterwards. The experiments tests run
// sequentially within the package, so mutating the shared world's options here
// is safe.
func withParallel(l *Lab, n int, f func()) {
	old := l.W.Options.Parallel
	l.W.Options.Parallel = n
	defer func() { l.W.Options.Parallel = old }()
	f()
}

// TestParallelReportsAreByteIdentical is the runner's core contract: every
// driver must render exactly the same report with one worker as with many,
// including the randomized QuickPick sweeps (whose seeds derive from cell
// positions, not worker interleaving).
func TestParallelReportsAreByteIdentical(t *testing.T) {
	l := sharedLab(t)
	drivers := map[string]func() (string, error){
		"table1": func() (string, error) {
			r, err := l.Table1(context.Background())
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"fig3": func() (string, error) {
			r, err := l.Figure3(context.Background())
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"fig5": func() (string, error) {
			r, err := l.Figure5(context.Background())
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"fig9": func() (string, error) {
			r, err := l.Figure9(context.Background(), 150)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"ablation-damping": func() (string, error) {
			r, err := l.DampingAblation(context.Background(), []float64{1.0, 0.82})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"reopt": func() (string, error) {
			r, err := l.Reopt(context.Background())
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
	}
	for name, run := range drivers {
		var serial, parallel string
		var serialErr, parallelErr error
		withParallel(l, 1, func() { serial, serialErr = run() })
		if serialErr != nil {
			t.Fatalf("%s serial: %v", name, serialErr)
		}
		withParallel(l, 8, func() { parallel, parallelErr = run() })
		if parallelErr != nil {
			t.Fatalf("%s parallel: %v", name, parallelErr)
		}
		if serial != parallel {
			t.Errorf("%s: parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, serial, parallel)
		}
	}
}

func TestRunQueriesPreservesWorkloadOrder(t *testing.T) {
	l := sharedLab(t)
	withParallel(l, 8, func() {
		ids, err := runQueries(context.Background(), l, func(ctx context.Context, qi int, q *query.Query) (string, error) {
			return q.ID, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range l.Queries {
			if ids[i] != q.ID {
				t.Fatalf("ids[%d] = %s, want %s", i, ids[i], q.ID)
			}
		}
	})
}
