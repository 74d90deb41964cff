package world

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"jobench/internal/index"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

// HookCounts counts, for the duration of one test, every pass through the
// four expensive steps the package keeps behind indirection points.
type HookCounts struct {
	Generations, Analyzes, IndexBuilds, Computes atomic.Int64

	// BeforeCompute, when set, runs inside every truth computation before
	// the real DP; a non-nil error is returned instead of running it.
	BeforeCompute func(ctx context.Context, g *query.Graph) error

	mu          sync.Mutex
	generated   []*storage.Database
	computedOn  []*storage.Database
	computedIDs map[string]int
}

// Reset zeroes the counters between the phases of a test.
func (c *HookCounts) Reset() {
	c.Generations.Store(0)
	c.Analyzes.Store(0)
	c.IndexBuilds.Store(0)
	c.Computes.Store(0)
	c.mu.Lock()
	c.generated, c.computedOn, c.computedIDs = nil, nil, nil
	c.mu.Unlock()
}

// Generated returns every database the generation hook produced.
func (c *HookCounts) Generated() []*storage.Database {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*storage.Database(nil), c.generated...)
}

// ComputedOn returns the database each truth computation ran against.
func (c *HookCounts) ComputedOn() []*storage.Database {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*storage.Database(nil), c.computedOn...)
}

// ComputedIDs returns how many times each query's truth was computed.
func (c *HookCounts) ComputedIDs() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.computedIDs))
	for id, n := range c.computedIDs {
		out[id] = n
	}
	return out
}

// CountHooks wraps the package's hooks in counters until the test ends.
func CountHooks(t *testing.T) *HookCounts {
	t.Helper()
	c := &HookCounts{}
	origGen, origAnalyze, origBuild, origCompute := generateDB, analyzeDB, buildIndexes, computeTruth
	generateDB = func(w *workload.Workload, cfg workload.Config) *storage.Database {
		c.Generations.Add(1)
		db := origGen(w, cfg)
		c.mu.Lock()
		c.generated = append(c.generated, db)
		c.mu.Unlock()
		return db
	}
	analyzeDB = func(db *storage.Database, opts stats.Options) *stats.DB {
		c.Analyzes.Add(1)
		return origAnalyze(db, opts)
	}
	buildIndexes = func(w *workload.Workload, db *storage.Database, cfg index.Config) (*index.Set, error) {
		c.IndexBuilds.Add(1)
		return origBuild(w, db, cfg)
	}
	computeTruth = func(ctx context.Context, db *storage.Database, g *query.Graph, opts truecard.Options) (*truecard.Store, error) {
		c.Computes.Add(1)
		c.mu.Lock()
		c.computedOn = append(c.computedOn, db)
		if c.computedIDs == nil {
			c.computedIDs = make(map[string]int)
		}
		c.computedIDs[g.Q.ID]++
		c.mu.Unlock()
		if c.BeforeCompute != nil {
			if err := c.BeforeCompute(ctx, g); err != nil {
				return nil, err
			}
		}
		return origCompute(ctx, db, g, opts)
	}
	t.Cleanup(func() {
		generateDB, analyzeDB, buildIndexes, computeTruth = origGen, origAnalyze, origBuild, origCompute
	})
	return c
}
