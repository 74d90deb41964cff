// Planspace: visualise the join-order search space of one query (the
// paper's Fig. 9 and §6): sample thousands of random plans with QuickPick,
// print an ASCII cost histogram per physical design, and compare the
// enumeration algorithms.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"

	"jobench/internal/cardest"
	"jobench/internal/costmodel"
	"jobench/internal/enum"
	"jobench/internal/index"
	"jobench/internal/job"
	"jobench/internal/optimizer"
	"jobench/internal/plan"
	"jobench/internal/query"
	"jobench/internal/storage"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

func main() {
	const qid = "16d" // one of Fig. 9's "few good plans" queries
	const samples = 5000

	w, err := workload.Get("imdb")
	if err != nil {
		log.Fatal(err)
	}
	db := w.Generate(workload.Config{Scale: 0.3, Seed: 42})
	q := job.ByID(qid)
	g := query.MustBuildGraph(q)
	fmt.Printf("query %s: %d relations, %d join predicates, %d connected subgraphs\n\n",
		qid, len(q.Rels), q.NumJoins(), g.CountConnectedSubsets())

	st, err := truecard.Compute(db, g, truecard.Options{})
	if err != nil {
		log.Fatal(err)
	}
	truth := cardest.True{Store: st}

	// The normaliser: optimal plan under FK indexes (as in Fig. 9).
	fkIdx, err := w.BuildIndexes(db, index.PKFK)
	if err != nil {
		log.Fatal(err)
	}
	fkOpt, err := enum.DP(space(g, db, fkIdx, truth))
	if err != nil {
		log.Fatal(err)
	}
	fkOptimal := fkOpt.ECost

	for _, cfg := range w.IndexConfigs() {
		idx, err := w.BuildIndexes(db, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sp := space(g, db, idx, truth)
		opt, err := enum.DP(sp)
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var costs []float64
		for i := 0; i < samples; i++ {
			p, err := enum.QuickPick(sp, rng)
			if err != nil {
				log.Fatal(err)
			}
			costs = append(costs, p.ECost/fkOptimal)
		}
		fmt.Printf("--- %s (optimal %.2fx of FK optimum) ---\n", cfg, opt.ECost/fkOptimal)
		histogram(costs)

		// How do the heuristics fare here?
		for _, alg := range []optimizer.Algorithm{optimizer.DP, optimizer.QuickPick1000, optimizer.GOO} {
			p, err := optimizer.Optimize(sp, alg, 1)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-26s true cost %8.2fx of FK optimum\n", alg, p.ECost/fkOptimal)
		}
		fmt.Println()
	}
}

func space(g *query.Graph, db *storage.Database, idx *index.Set, truth cardest.Provider) *enum.Space {
	return &enum.Space{
		G:          g,
		DB:         db,
		Cards:      truth,
		Model:      costmodel.NewSimple(),
		Indexes:    idx,
		DisableNLJ: true,
		Shape:      plan.Bushy,
	}
}

// histogram prints a log-scale ASCII density plot, like Fig. 9's panels.
func histogram(costs []float64) {
	lo, hi := math.Inf(1), 0.0
	for _, c := range costs {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	const buckets = 12
	counts := make([]int, buckets)
	logLo, logHi := math.Log10(lo), math.Log10(hi*1.0001)
	for _, c := range costs {
		b := int(float64(buckets) * (math.Log10(c) - logLo) / (logHi - logLo))
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	for b := 0; b < buckets; b++ {
		edge := math.Pow(10, logLo+float64(b)*(logHi-logLo)/buckets)
		bar := strings.Repeat("#", counts[b]*50/maxC)
		fmt.Printf("  %10.2fx |%-50s %d\n", edge, bar, counts[b])
	}
}
