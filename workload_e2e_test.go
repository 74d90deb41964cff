package jobench_test

// End-to-end coverage of the workload registry through the public facade:
// every registered workload opens, plans, and executes, and a replan-free
// adaptive run on tpch costs exactly what the static pipeline costs — the
// acceptance bar for threading workloads through the reopt layer.

import (
	"context"
	"testing"

	"jobench"
)

func TestOpenEveryWorkload(t *testing.T) {
	for _, tc := range []struct {
		workload string
		query    string
	}{
		{"imdb", "13d"},
		{"imdb-skew", "13d"},
		{"tpch", "tpch5"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			s, err := jobench.Open(jobench.Options{Workload: tc.workload, Scale: 0.05, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Workload(); got != tc.workload {
				t.Fatalf("Workload() = %q, want %q", got, tc.workload)
			}
			if s.World().Seed != 7 || s.World().Scale != 0.05 {
				t.Fatalf("World() = %+v, want seed 7 scale 0.05", s.World())
			}
			res, err := s.Execute(tc.query, jobench.RunOptions{
				PlanOptions: jobench.PlanOptions{DisableNestedLoops: true},
				Rehash:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Work == 0 {
				t.Fatal("execution did no work")
			}
		})
	}
	if _, err := jobench.Open(jobench.Options{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestTPCHAdaptiveParityWithStatic: with a q-error threshold high enough
// that no replan ever fires, an adaptive tpch execution must do exactly the
// work of the static pipeline — adaptivity that changes nothing must cost
// nothing.
func TestTPCHAdaptiveParityWithStatic(t *testing.T) {
	sys, err := jobench.Open(jobench.Options{Workload: "tpch", Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	run := jobench.RunOptions{
		PlanOptions: jobench.PlanOptions{DisableNestedLoops: true},
		Rehash:      true,
	}
	for _, qid := range []string{"tpch3", "tpch5", "tpch10"} {
		static, err := sys.Execute(qid, run)
		if err != nil {
			t.Fatalf("%s static: %v", qid, err)
		}
		ares, err := sys.ExecuteAdaptive(context.Background(), qid, jobench.AdaptiveOptions{
			RunOptions:    run,
			QErrThreshold: 1e12, // nothing misestimates this badly
		})
		if err != nil {
			t.Fatalf("%s adaptive: %v", qid, err)
		}
		if ares.Replans != 0 {
			t.Fatalf("%s: %d replans under an unreachable threshold", qid, ares.Replans)
		}
		if ares.Rows != static.Rows {
			t.Fatalf("%s: adaptive rows %d != static rows %d", qid, ares.Rows, static.Rows)
		}
		if ares.Work != static.Work {
			t.Fatalf("%s: replan-free adaptive work %d != static work %d",
				qid, ares.Work, static.Work)
		}
	}
}
