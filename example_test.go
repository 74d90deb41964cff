package jobench_test

import (
	"context"
	"fmt"
	"log"

	"jobench"
)

// The paper's running example (Fig. 2) end to end: look at query 13d, ask
// the five estimators for its result size, then optimize and execute it on
// PostgreSQL-style estimates and on the true cardinalities. Every
// estimator says 1 row for a result of 1 003: the underestimation of §3.
func ExampleSystem_Execute() {
	// A small instance: scale 0.2 generates about 47k rows over 21 tables.
	sys, err := jobench.Open(jobench.Options{Scale: 0.2, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	const qid = "13d"

	sql, err := sys.SQL(qid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Query %s:\n%s\n\n", qid, sql)

	// How large is the result, really, and what do the estimators think?
	truth, err := sys.TrueCardinality(qid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true result cardinality: %.0f\n", truth)
	for _, est := range []string{
		jobench.EstPostgres, jobench.EstDBMSA, jobench.EstDBMSB,
		jobench.EstDBMSC, jobench.EstHyPer,
	} {
		v, err := sys.EstimateCardinality(qid, est)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s estimates %12.1f\n", est, v)
	}

	// Optimize with PostgreSQL-style estimates and execute.
	run := jobench.RunOptions{
		PlanOptions: jobench.PlanOptions{
			Estimator:          jobench.EstPostgres,
			CostModel:          jobench.ModelSimple,
			Indexes:            jobench.PKFK,
			DisableNestedLoops: true,
		},
		Rehash: true,
	}
	res, err := sys.Execute(qid, run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan under PostgreSQL estimates:\n%s", res.Plan)
	fmt.Printf("executed: %d rows, %d work units\n\n", res.Rows, res.Work)

	// The same query and design planned on the true cardinalities.
	run.Estimator = jobench.EstTrue
	exact, err := sys.Execute(qid, run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan under true cardinalities: %d rows, %d work units\n", exact.Rows, exact.Work)
	// The cost model's optimum is not the work-unit optimum here (ROADMAP.md item 8).
	fmt.Printf("work ratio, PostgreSQL estimates / true cardinalities: %.2f\n", float64(res.Work)/float64(exact.Work))

	// Output:
	// Query 13d:
	// SELECT COUNT(*)
	// FROM company_name cn,
	//      company_type ct,
	//      info_type it,
	//      info_type it2,
	//      kind_type kt,
	//      movie_companies mc,
	//      movie_info mi,
	//      movie_info_idx mi_idx,
	//      title t
	// WHERE cn.country_code = '[us]'
	//   AND ct.kind = 'production companies'
	//   AND it.info = 'rating'
	//   AND it2.info = 'release dates'
	//   AND kt.kind = 'movie'
	//   AND mi.movie_id = t.id
	//   AND it2.id = mi.info_type_id
	//   AND kt.id = t.kind_id
	//   AND mc.movie_id = t.id
	//   AND cn.id = mc.company_id
	//   AND ct.id = mc.company_type_id
	//   AND mi_idx.movie_id = t.id
	//   AND it.id = mi_idx.info_type_id
	//   AND mi.movie_id = mi_idx.movie_id
	//   AND mc.movie_id = mi.movie_id
	//   AND mc.movie_id = mi_idx.movie_id;
	//
	// true result cardinality: 1003
	//   postgres   estimates          1.0
	//   dbms-a     estimates          1.0
	//   dbms-b     estimates          1.0
	//   dbms-c     estimates          1.0
	//   hyper      estimates          1.0
	//
	// plan under PostgreSQL estimates:
	// IndexNLJoin on it2.id=mi.info_type_id  (est 1 rows, cost 112.5)
	//   IndexNLJoin on mi.movie_id=t.id AND mi.movie_id=mi_idx.movie_id AND mc.movie_id=mi.movie_id  (est 1 rows, cost 110.5)
	//     HashJoin on ct.id=mc.company_type_id  (est 1 rows, cost 108.5)
	//       Scan company_type ct [kind = 'production companies']  (est 1 rows)
	//       IndexNLJoin on cn.id=mc.company_id  (est 1 rows, cost 106.7)
	//         IndexNLJoin on mc.movie_id=t.id AND mc.movie_id=mi_idx.movie_id  (est 1 rows, cost 104.7)
	//           HashJoin on kt.id=t.kind_id  (est 3 rows, cost 98.4)
	//             Scan kind_type kt [kind = 'movie']  (est 1 rows)
	//             IndexNLJoin on mi_idx.movie_id=t.id  (est 22 rows, cost 93.9)
	//               IndexNLJoin on it.id=mi_idx.info_type_id  (est 22 rows, cost 49.7)
	//                 Scan info_type it [info = 'rating']  (est 1 rows)
	//                 Scan movie_info_idx mi_idx  (est 618 rows)
	//               Scan title t  (est 2000 rows)
	//           Scan movie_companies mc  (est 2814 rows)
	//         Scan company_name cn [country_code = '[us]']  (est 67 rows)
	//     Scan movie_info mi  (est 17184 rows)
	//   Scan info_type it2 [info = 'release dates']  (est 1 rows)
	// executed: 1003 rows, 28387 work units
	//
	// plan under true cardinalities: 1003 rows, 30356 work units
	// work ratio, PostgreSQL estimates / true cardinalities: 0.94
}

// The three engine configurations of Fig. 6 on query 17e (§4.1). A deep
// underestimate makes the optimizer pick a non-indexed nested-loop join,
// and executing it is catastrophic. Disabling those joins and letting hash
// tables grow at runtime recovers most of the loss without fixing a single
// estimate: robust execution-engine choices absorb the damage of wrong
// estimates.
func ExampleRunOptions() {
	sys, err := jobench.Open(jobench.Options{Scale: 0.2, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	const qid = "17e" // character-name-in-title: large intermediates
	truth, err := sys.TrueCardinality(qid)
	if err != nil {
		log.Fatal(err)
	}
	est, err := sys.EstimateCardinality(qid, jobench.EstPostgres)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %s: true cardinality %.0f, PostgreSQL estimate %.1f (%.0fx off)\n\n",
		qid, truth, est, truth/est)

	// Baseline: the plan the optimizer finds when given true cardinalities.
	optimal, err := sys.Execute(qid, jobench.RunOptions{
		PlanOptions: jobench.PlanOptions{
			Estimator:          jobench.EstTrue,
			CostModel:          jobench.ModelPostgres,
			Indexes:            jobench.PKOnly,
			DisableNestedLoops: true,
		},
		Rehash: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal plan (true cardinalities):        %12d work units\n", optimal.Work)

	run := func(label string, noNLJ, rehash bool) {
		res, err := sys.Execute(qid, jobench.RunOptions{
			PlanOptions: jobench.PlanOptions{
				Estimator:          jobench.EstPostgres,
				CostModel:          jobench.ModelPostgres,
				Indexes:            jobench.PKOnly,
				DisableNestedLoops: noNLJ,
			},
			Rehash: rehash,
			// Time out runaway plans at 500x the optimal work (§4.1).
			WorkLimit: 500 * optimal.Work,
		})
		if err != nil && !res.TimedOut {
			log.Fatal(err)
		}
		if res.TimedOut {
			fmt.Printf("%-42s TIMED OUT (>%d work units)\n", label, res.Work)
			return
		}
		fmt.Printf("%-42s %12d work units (%.2fx optimal)\n",
			label, res.Work, float64(res.Work)/float64(optimal.Work))
	}
	run("(a) default engine:", false, false)
	run("(b) nested-loop joins disabled:", true, false)
	run("(c) + hash tables resized at runtime:", true, true)

	// Output:
	// query 17e: true cardinality 22382, PostgreSQL estimate 1.0 (22382x off)
	//
	// optimal plan (true cardinalities):              181491 work units
	// (a) default engine:                            17202541 work units (94.78x optimal)
	// (b) nested-loop joins disabled:                 4726812 work units (26.04x optimal)
	// (c) + hash tables resized at runtime:            616379 work units (3.40x optimal)
}

// Adaptive re-optimization on query 16b: execute statically on
// PostgreSQL-style estimates, execute adaptively (probing intermediates and
// re-planning on misestimates), then execute the plan chosen under the true
// cardinalities. That is the paper's "what if the optimizer had the true
// cardinalities?", with the adaptive run paying to learn a few of them.
func ExampleSystem_ExecuteAdaptive() {
	sys, err := jobench.Open(jobench.Options{Scale: 0.2, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	const qid = "16b"
	plan := jobench.PlanOptions{
		Estimator:          jobench.EstPostgres,
		CostModel:          jobench.ModelTuned,
		Indexes:            jobench.PKOnly,
		DisableNestedLoops: true,
	}

	// Static: plan once on estimates, run whatever comes out.
	static, err := sys.Execute(qid, jobench.RunOptions{PlanOptions: plan, Rehash: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static:   %d rows, %12d work units\n", static.Rows, static.Work)

	// Adaptive: probe plan subtrees, replan past q-error 2.
	adaptive, err := sys.ExecuteAdaptive(context.Background(), qid, jobench.AdaptiveOptions{
		RunOptions: jobench.RunOptions{PlanOptions: plan, Rehash: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive: %d rows, %12d work units (%d probes, %d replans)\n",
		adaptive.Rows, adaptive.Work, adaptive.Probes, adaptive.Replans)

	// Optimal: plan once on the true cardinalities.
	plan.Estimator = jobench.EstTrue
	optimal, err := sys.Execute(qid, jobench.RunOptions{PlanOptions: plan, Rehash: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal:  %d rows, %12d work units\n", optimal.Rows, optimal.Work)

	// Output:
	// static:   17797 rows,      1132300 work units
	// adaptive: 17797 rows,       499897 work units (2 probes, 1 replans)
	// optimal:  17797 rows,       158501 work units
}
