// Adaptive re-optimization end to end on one query: execute statically on
// PostgreSQL-style estimates, execute adaptively (probing intermediates and
// re-planning on misestimates), then execute the plan chosen under the true
// cardinalities — the paper's "what if the optimizer had the true
// cardinalities?" question, with the adaptive run paying to learn a few of
// them.
package main

import (
	"context"
	"fmt"
	"log"

	"jobench"
)

func main() {
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
}
