// Cardinality: reproduce the paper's §3 analysis on a few queries — watch
// estimation errors grow exponentially with the number of joins, and
// compare the five estimator profiles side by side (a miniature Fig. 3).
package main

import (
	"fmt"
	"log"

	"jobench/internal/cardest"
	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/metrics"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/truecard"
)

func main() {
	db := imdb.Generate(imdb.Config{Scale: 0.3, Seed: 42})
	sdb := stats.AnalyzeDatabase(db, stats.DefaultOptions(1))

	estimators := []cardest.Estimator{
		cardest.NewPostgres(db, sdb),
		cardest.NewDBMSA(db, sdb),
		cardest.NewDBMSB(db, sdb),
		cardest.NewDBMSC(db, sdb),
		cardest.NewSample(db, sdb),
	}

	// Collect signed errors (estimate/truth) by join count over a handful
	// of representative queries.
	errs := make(map[string][][]float64) // system -> joins -> errors
	for _, est := range estimators {
		errs[est.Name()] = make([][]float64, 7)
	}
	for _, qid := range []string{"6a", "13d", "16d", "17b", "25c", "12c", "22a"} {
		q := job.ByID(qid)
		g := query.MustBuildGraph(q)
		st, err := truecard.Compute(db, g, truecard.Options{MaxSize: 7})
		if err != nil {
			log.Fatal(err)
		}
		provs := make(map[string]cardest.Provider)
		for _, est := range estimators {
			provs[est.Name()] = est.ForQuery(g)
		}
		g.ConnectedSubsets(func(s query.BitSet) {
			nj := g.EdgesWithin(s).Count()
			if nj > 6 || s.Count() > 7 {
				return
			}
			truth, ok := st.Card(s)
			if !ok {
				return
			}
			for name, p := range provs {
				errs[name][nj] = append(errs[name][nj], metrics.SignedError(p.Card(s), truth))
			}
		})
	}

	fmt.Println("median signed estimation error (est/true) by number of joins")
	fmt.Println("(1.0 = perfect; < 1 = underestimation, the paper's Fig. 3 trend)")
	fmt.Printf("\n%-12s", "system")
	for nj := 0; nj <= 6; nj++ {
		fmt.Printf("%10d", nj)
	}
	fmt.Println()
	for _, est := range estimators {
		fmt.Printf("%-12s", est.Name())
		for nj := 0; nj <= 6; nj++ {
			xs := errs[est.Name()][nj]
			if len(xs) == 0 {
				fmt.Printf("%10s", "-")
				continue
			}
			fmt.Printf("%10.3g", metrics.Median(xs))
		}
		fmt.Println()
	}

	fmt.Println("\nq-error 95th percentile by number of joins")
	for _, est := range estimators {
		fmt.Printf("%-12s", est.Name())
		for nj := 0; nj <= 6; nj++ {
			xs := errs[est.Name()][nj]
			if len(xs) == 0 {
				fmt.Printf("%10s", "-")
				continue
			}
			qe := make([]float64, len(xs))
			for i, x := range xs {
				if x < 1 {
					qe[i] = 1 / x
				} else {
					qe[i] = x
				}
			}
			fmt.Printf("%10.3g", metrics.Percentile(qe, 95))
		}
		fmt.Println()
	}
}
