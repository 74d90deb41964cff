package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"jobench"
	"jobench/internal/experiments"
	"jobench/internal/query"
	"jobench/internal/snapshot"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

// truthInstance backs truth.cold: every pass computes the true cardinalities
// of every query on a System opened over an empty cache directory, so each
// op pays the DP and the snapshot encode. The last populated directory then
// serves the warm open, the engine-against-oracle check and the reports.
type truthInstance struct {
	scale float64
	dir   string // scratch space, removed by close
	pass  int

	sys       *jobench.System
	populated string // the cache dir the last facade pass filled

	ids  []string
	list []op

	world *layerWorld
	store *snapshot.Store  // the unrolled passes' own store
	bytes map[string]int64 // what each snapshot kind added to the store's directory

	// reports maps a report name to the SHA-256 the committed file expects;
	// an empty hash is filled in instead of compared (-update-expected).
	reports map[string]string
}

func openTruthCold(sz sizing, tmp string, reports map[string]string) (instance, error) {
	dir, err := os.MkdirTemp(tmp, "truth-")
	if err != nil {
		return nil, err
	}
	t := &truthInstance{scale: sz.truthScale, dir: dir, reports: reports}
	ids, err := queryIDs("imdb")
	if err != nil {
		return nil, err
	}
	t.ids = strided(ids, sz.stride)
	for _, q := range t.ids {
		t.list = append(t.list, op{ID: len(t.list), Kind: "truth", Query: q})
	}
	return t, nil
}

// queryIDs lists a registered workload's query ids in registry order.
func queryIDs(name string) ([]string, error) {
	wl, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, q := range wl.Queries() {
		ids = append(ids, q.ID)
	}
	return ids, nil
}

func (t *truthInstance) ops() []op { return t.list }

func (t *truthInstance) do(_ int, o op) (answer, error) {
	st, err := t.sys.TruthStore(o.Query)
	if err != nil {
		return answer{}, err
	}
	return truthAnswer(st), nil
}

func truthAnswer(st *truecard.Store) answer {
	full, _ := st.Card(query.FullSet(st.G.N))
	return answer{Card: full, Subgraphs: int64(st.NumSubgraphs())}
}

// reset gives the next pass an empty cache directory: a fresh Open for a
// facade pass (which also writes the database, statistics and index
// snapshots), a fresh snapshot.Store with the same three saves for an
// unrolled one. Directories of earlier passes are deleted.
func (t *truthInstance) reset(traced bool, rec *recorder) error {
	t.pass++
	dir := filepath.Join(t.dir, fmt.Sprintf("pass-%d", t.pass))
	if !traced {
		if t.populated != "" {
			if err := os.RemoveAll(t.populated); err != nil {
				return err
			}
		}
		sys, err := jobench.Open(jobench.Options{Scale: t.scale, Seed: worldSeed, CacheDir: dir, Logf: quiet})
		if err != nil {
			return err
		}
		t.sys, t.populated = sys, dir
		return nil
	}
	if t.store != nil {
		if err := os.RemoveAll(filepath.Dir(t.store.Dir())); err != nil {
			return err
		}
	}
	w := t.world
	t.store = snapshot.New(dir, snapshot.Key{World: w.key, QueryHash: snapshot.WorkloadHash(w.queries)}, 0)
	t.bytes = make(map[string]int64)
	save := func(kind string, f func() error) error {
		sp := rec.begin("snapshot."+kind+".save", -1, -1)
		err := f()
		rec.end(sp, 0)
		if err != nil {
			return err
		}
		return t.noteBytes(kind)
	}
	if err := save("db", func() error { return t.store.SaveDatabase(w.db) }); err != nil {
		return err
	}
	if err := save("stats", func() error { return t.store.SaveStats(analyzeOptions(), w.stats) }); err != nil {
		return err
	}
	for cfg, set := range w.idx {
		if err := save("indexes", func() error { return t.store.SaveIndexes(cfg.Label(), set) }); err != nil {
			return err
		}
	}
	return nil
}

// noteBytes credits kind with whatever the store's directory grew by since
// the last call, so sizes are read without knowing the store's file names.
func (t *truthInstance) noteBytes(kind string) error {
	var total int64
	err := filepath.WalkDir(t.store.Dir(), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	for _, n := range t.bytes {
		total -= n
	}
	t.bytes[kind] += total
	return err
}

func (t *truthInstance) traceSetup(rec *recorder) (err error) {
	t.world, err = buildLayerWorld("imdb", t.scale, rec)
	return err
}

// unrolled is System.TruthStore on a cold cache: the DP, then the encode
// and write of its result.
func (t *truthInstance) unrolled(_ int, rec *recorder, root int32, o op) (answer, error) {
	g := t.world.graphs[o.Query]
	sp := rec.begin("truecard.compute", root, int32(o.ID))
	st, err := truecard.ComputeContext(context.Background(), t.world.db, g, truecard.Options{})
	if err != nil {
		rec.end(sp, 0)
		return answer{}, err
	}
	rec.end(sp, int64(st.NumSubgraphs()))
	sp = rec.begin("snapshot.truth.save", root, int32(o.ID))
	err = t.store.SaveTruth(st)
	rec.end(sp, 0)
	if err != nil {
		return answer{}, err
	}
	return truthAnswer(st), nil
}

// finish measures the warm side: Open + Warmup from the populated directory
// through the facade, and in a traced run each snapshot kind's load and
// size through the store.
func (t *truthInstance) finish(traced bool, rec *recorder, extra map[string]float64) error {
	t0 := time.Now()
	sys, err := jobench.Open(jobench.Options{Scale: t.scale, Seed: worldSeed, CacheDir: t.populated, Logf: quiet})
	if err != nil {
		return err
	}
	if err := sys.Warmup(); err != nil {
		return err
	}
	extra["open_warm_s"] = time.Since(t0).Seconds()
	t.sys = sys
	if !traced {
		return nil
	}

	w := t.world
	sp := rec.begin("snapshot.db.load", -1, -1)
	db, err := t.store.LoadDatabase()
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	sp = rec.begin("snapshot.stats.load", -1, -1)
	_, err = t.store.LoadStats(analyzeOptions())
	rec.end(sp, 0)
	if err != nil {
		return err
	}
	for cfg := range w.idx {
		sp = rec.begin("snapshot.indexes.load", -1, -1)
		_, err = t.store.LoadIndexes(cfg.Label(), db)
		rec.end(sp, 0)
		if err != nil {
			return err
		}
	}
	for _, q := range t.ids {
		sp = rec.begin("snapshot.truth.load", -1, -1)
		_, err = t.store.LoadTruth(w.graphs[q])
		rec.end(sp, 0)
		if err != nil {
			return err
		}
	}
	if err := t.noteBytes("truth"); err != nil {
		return err
	}
	for kind, n := range t.bytes {
		extra["snapshot."+kind+".bytes"] = float64(n)
	}
	return nil
}

// verify runs on the warm System finish opened. The truth DP and the
// execution engine share no code path beyond storage and predicates, so the
// DP's full-set cardinality is an independent oracle for every query's
// result size; and the paper reports that read only the truth must hash to
// the committed values.
func (t *truthInstance) verify(ref []answer, _ bool, _ *rand.Rand, g *gate) {
	for _, o := range t.list {
		res, err := t.sys.Execute(o.Query, jobench.RunOptions{
			PlanOptions: jobench.PlanOptions{Indexes: jobench.PKFK, DisableNestedLoops: true},
			Rehash:      true,
		})
		g.check(err == nil && float64(res.Rows) == ref[o.ID].Card,
			"%s: engine returned %d rows (%v), truecard says %v", o.Query, res.Rows, err, ref[o.ID].Card)
	}
	if len(t.reports) == 0 {
		return
	}
	lab, err := experiments.NewLab(experiments.Config{Scale: t.scale, Seed: worldSeed, CacheDir: t.populated, Logf: quiet})
	if err != nil {
		g.check(false, "lab: %v", err)
		return
	}
	for name, want := range t.reports {
		text, err := experiments.RunExperiment(context.Background(), lab, name, experiments.Params{})
		sum := sha256.Sum256([]byte(text))
		got := hex.EncodeToString(sum[:])
		if err == nil && want == "" {
			t.reports[name] = got // -update-expected blanked it to have it recorded
			continue
		}
		g.check(err == nil && got == want, "report %s: sha256 %s (%v), want %s", name, got, err, want)
	}
}

func (t *truthInstance) close() error { return os.RemoveAll(t.dir) }
