// Quickstart: open the benchmark, look at a JOB query, optimize it with
// different estimators and execute it — the end-to-end pipeline of the
// paper in ~50 lines.
package main

import (
	"fmt"
	"log"

	"jobench"
)

func main() {
	// A small instance: scale 0.2 generates about 47k rows over 21 tables.
	sys, err := jobench.Open(jobench.Options{Scale: 0.2, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	const qid = "13d" // the paper's running example (Fig. 2)

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

	// The same query and design planned with true cardinalities: the
	// paper's optimal baseline.
	run.Estimator = jobench.EstTrue
	opt, err := sys.Execute(qid, run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal plan (true cardinalities): %d rows, %d work units\n", opt.Rows, opt.Work)
	fmt.Printf("slowdown from estimation errors: %.2fx\n", float64(res.Work)/float64(opt.Work))
}
