package truecard

import (
	"fmt"
	"sync"
	"testing"

	"jobench/internal/imdb"
	"jobench/internal/job"
	"jobench/internal/query"
	"jobench/internal/storage"
)

var (
	benchOnce sync.Once
	benchDB   *storage.Database
)

func benchData(b *testing.B) *storage.Database {
	b.Helper()
	benchOnce.Do(func() {
		benchDB = imdb.Generate(imdb.Config{Scale: 0.1, Seed: 42})
	})
	return benchDB
}

// BenchmarkTruecardCompute quantifies the DP's per-level fan-out on a
// multi-join query at scale 0.1: workers=1 is the serial baseline,
// workers=0 uses every core. 31c, the heaviest JOB query, runs at workers=0
// only; its sans-selection counts carry the key-column residuals that 13d's
// heavy levels lack. CI's bench-smoke step runs one iteration of each to
// catch bit-rot; run with -bench=TruecardCompute -benchmem for real numbers.
func BenchmarkTruecardCompute(b *testing.B) {
	db := benchData(b)
	cases := []struct {
		qid     string
		workers int
	}{
		{"13d", 1}, // 9 relations, 506 connected subgraphs
		{"13d", 2},
		{"13d", 0},
		{"31c", 0},
	}
	for _, tc := range cases {
		g := query.MustBuildGraph(job.ByID(tc.qid))
		b.Run(fmt.Sprintf("%s/workers=%d", tc.qid, tc.workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compute(db, g, Options{Parallel: tc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
