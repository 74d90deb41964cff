package jobench_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"jobench"
)

var (
	sysOnce sync.Once
	sys     *jobench.System
	sysErr  error
)

func system(t *testing.T) *jobench.System {
	t.Helper()
	sysOnce.Do(func() {
		sys, sysErr = jobench.Open(jobench.Options{Scale: 0.05, Seed: 7})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sys
}

func TestOpenAndInventory(t *testing.T) {
	s := system(t)
	if got := len(s.QueryIDs()); got != 113 {
		t.Fatalf("workload has %d queries, want 113", got)
	}
	rows := s.TableRows()
	if len(rows) != 21 {
		t.Fatalf("%d tables, want 21", len(rows))
	}
	if rows["cast_info"] < rows["title"] {
		t.Fatal("cast_info should dominate title")
	}
}

func TestSQLAndGraph(t *testing.T) {
	s := system(t)
	sql, err := s.SQL("13d")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"company_name cn", "production companies", "mi.movie_id = t.id"} {
		if !strings.Contains(sql, want) {
			t.Errorf("13d SQL missing %q", want)
		}
	}
	dot, err := s.JoinGraphDot("13d")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "mc -- t") && !strings.Contains(dot, "t -- mc") {
		t.Errorf("13d graph missing mc-t edge:\n%s", dot)
	}
	if _, err := s.SQL("99z"); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestEstimateVsTruth(t *testing.T) {
	s := system(t)
	truth, err := s.TrueCardinality("3b")
	if err != nil {
		t.Fatal(err)
	}
	est, err := s.EstimateCardinality("3b", jobench.EstPostgres)
	if err != nil {
		t.Fatal(err)
	}
	if est < 1 {
		t.Fatalf("estimate %g below one row", est)
	}
	tru, err := s.EstimateCardinality("3b", jobench.EstTrue)
	if err != nil {
		t.Fatal(err)
	}
	if tru != truth {
		t.Fatalf("EstTrue (%g) != TrueCardinality (%g)", tru, truth)
	}
	if _, err := s.EstimateCardinality("3b", "bogus"); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

func TestOptimizeAndExecuteAgree(t *testing.T) {
	s := system(t)
	truth, err := s.TrueCardinality("1a")
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range []string{jobench.EstPostgres, jobench.EstDBMSB, jobench.EstTrue} {
		res, err := s.Execute("1a", jobench.RunOptions{
			PlanOptions: jobench.PlanOptions{
				Estimator:          est,
				Indexes:            jobench.PKOnly,
				DisableNestedLoops: true,
			},
			Rehash: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", est, err)
		}
		if res.Rows != int64(truth) {
			t.Errorf("%s: %d rows, want %.0f (plans must not change results)", est, res.Rows, truth)
		}
		if res.Plan == "" || res.Work <= 0 {
			t.Errorf("%s: empty plan or work", est)
		}
	}
}

func TestExecuteWorkLimit(t *testing.T) {
	s := system(t)
	res, err := s.Execute("1a", jobench.RunOptions{
		PlanOptions: jobench.PlanOptions{DisableNestedLoops: true},
		WorkLimit:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("10-unit work limit not hit")
	}
}

func TestPlanOptionsValidation(t *testing.T) {
	s := system(t)
	if _, _, err := s.Optimize("1a", jobench.PlanOptions{CostModel: "bogus"}); err == nil {
		t.Fatal("unknown cost model accepted")
	}
	if _, _, err := s.Optimize("1a", jobench.PlanOptions{Estimator: "bogus"}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
	if _, err := s.Execute("nope", jobench.RunOptions{}); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestCostModelsProduceDifferentPlansOrCosts(t *testing.T) {
	s := system(t)
	_, c1, err := s.Optimize("13d", jobench.PlanOptions{CostModel: jobench.ModelSimple, DisableNestedLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := s.Optimize("13d", jobench.PlanOptions{CostModel: jobench.ModelPostgres, DisableNestedLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("simple and postgres cost models returned identical costs")
	}
}

func TestAddQueryAndExplainAnalyze(t *testing.T) {
	s := system(t)
	err := s.AddQuery("custom1", `
		SELECT COUNT(*)
		FROM title t, movie_info mi, info_type it
		WHERE it.info = 'genres'
		  AND mi.info = 'Horror'
		  AND t.production_year > 2000
		  AND mi.movie_id = t.id
		  AND it.id = mi.info_type_id`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute("custom1", jobench.RunOptions{
		PlanOptions: jobench.PlanOptions{DisableNestedLoops: true},
		Rehash:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := s.TrueCardinality("custom1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != int64(truth) {
		t.Fatalf("custom query: %d rows, true %.0f", res.Rows, truth)
	}

	// Duplicates and invalid SQL are rejected.
	if err := s.AddQuery("custom1", "SELECT * FROM title t"); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := s.AddQuery("bad1", "SELECT * FROM nonexistent n"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := s.AddQuery("bad2", "this is not sql"); err == nil {
		t.Fatal("garbage accepted")
	}
	// Disconnected join graphs are invalid, as in JOB.
	if err := s.AddQuery("bad3", "SELECT * FROM title t, keyword k"); err == nil {
		t.Fatal("cross product accepted")
	}

	out, err := s.ExplainAnalyze("custom1", jobench.RunOptions{
		PlanOptions: jobench.PlanOptions{DisableNestedLoops: true},
		Rehash:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"est", "actual", "q-err", "work", "executed:"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeActualsMatchTruth pins EXPLAIN ANALYZE's measured
// per-operator cardinalities against the true-cardinality DP over every
// query and physical design: every executed operator's actual row count
// must equal the truth store's value for its relation set — the
// engine-side half of the paper's estimated-vs-true comparison. The only
// operators without actuals are the right leaves of IndexNLJoins, which
// are never scanned (their rows come from the parent's index probes);
// exactly those must be marked Probed. -short checks three queries.
func TestExplainAnalyzeActualsMatchTruth(t *testing.T) {
	s := system(t)
	qids := s.QueryIDs()
	if testing.Short() {
		qids = []string{"1a", "6a", "13d"}
	}
	for _, idx := range []jobench.IndexConfig{jobench.NoIndexes, jobench.PKOnly, jobench.PKFK} {
		for _, qid := range qids {
			res, err := s.ExplainAnalyzeContext(context.Background(), qid, jobench.RunOptions{
				PlanOptions: jobench.PlanOptions{Indexes: idx, DisableNestedLoops: true},
				Rehash:      true,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", qid, idx, err)
			}
			st, err := s.TruthStore(qid)
			if err != nil {
				t.Fatalf("%s: %v", qid, err)
			}
			if len(res.Nodes) == 0 {
				t.Fatalf("%s/%v: no analyzed nodes", qid, idx)
			}
			// Preorder ids: a join's right child follows its left subtree,
			// which over k relations holds 2k-1 nodes.
			probed := map[int]bool{}
			for _, n := range res.Nodes {
				if n.Op == "IndexNLJoin" {
					probed[n.ID+2*res.Nodes[n.ID+1].Set.Count()] = true
				}
			}
			for _, n := range res.Nodes {
				if n.Probed != probed[n.ID] {
					t.Errorf("%s/%v node %d (%s): Probed = %v, want %v", qid, idx, n.ID, n.Op, n.Probed, probed[n.ID])
				}
				if n.Probed {
					if !strings.HasPrefix(n.Op, "Scan ") || n.ActualRows != 0 || n.QError != 0 {
						t.Errorf("%s/%v node %d (%s): probed node with actual %d, q-error %g",
							qid, idx, n.ID, n.Op, n.ActualRows, n.QError)
					}
					continue
				}
				truth, ok := st.Card(n.Set)
				if !ok {
					t.Fatalf("%s node %d (%s): truth store has no cardinality for %v", qid, n.ID, n.Op, n.Set)
				}
				if n.ActualRows != int64(truth) {
					t.Errorf("%s/%v node %d (%s): actual %d rows, truth %.0f", qid, idx, n.ID, n.Op, n.ActualRows, truth)
				}
			}
		}
	}
}
