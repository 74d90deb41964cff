package service

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"jobench"
	"jobench/internal/experiments"
	"jobench/internal/parallel"
	"jobench/internal/trace"
	"jobench/internal/workload"
	"jobench/internal/world"
)

// entry is one resident world and the views over it. The System is built
// in the flight that opens the world; the Lab, whose ANALYZE passes only
// experiments need, is built once, by the first report computation that
// asks for it. A stored entry is never replaced.
type entry struct {
	world *world.World
	sys   *jobench.System

	labOnce sync.Once
	lab     *experiments.Lab
	labErr  error
}

// Pool keeps warm worlds resident, keyed by (workload, seed, scale), with
// LRU eviction beyond a fixed capacity and single-flight construction: a
// thundering herd of cold requests for one key performs exactly one
// world.Open, while every other request blocks for (and then shares) the
// same instance. The views share the world's database, index sets and
// truth stores. Construction failures are not cached — the next request
// retries.
//
// All methods are safe for concurrent use.
type Pool struct {
	metrics *Metrics

	// openWorld opens a cold world; injectable so the pool tests can count
	// and stall constructions without generating data.
	openWorld func(workload.Key) (*world.World, error)

	entries *lru[workload.Key, *entry]
	flight  parallel.Flight[workload.Key, *entry]
}

// NewPool builds a pool of at most capacity resident worlds (minimum 1)
// whose cold constructions run through an open function derived from cfg.
func NewPool(cfg Config, metrics *Metrics) *Pool {
	if metrics == nil {
		metrics = NewMetrics()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	capacity := cfg.PoolSize
	if capacity <= 0 {
		capacity = 2
	}
	return &Pool{
		metrics: metrics,
		openWorld: func(k workload.Key) (*world.World, error) {
			return world.Open(world.Options{
				Workload: k.Workload, Scale: k.Scale, Seed: k.Seed,
				Parallel: cfg.Parallel, CacheDir: cfg.CacheDir,
				// The snapshot store logs printf-style lines.
				Logf: func(format string, args ...any) { cfg.Logger.Info(fmt.Sprintf(format, args...)) },
			})
		},
		entries: newLRU[workload.Key, *entry](capacity, &metrics.PoolEvictions),
	}
}

// System returns the resident System for key, opening the world (exactly
// once under concurrency) on a miss; see resident.
func (p *Pool) System(ctx context.Context, key workload.Key) (*jobench.System, error) {
	e, err := p.resident(ctx, key)
	if err != nil {
		return nil, err
	}
	return e.sys, nil
}

// Lab returns the resident experiments Lab for key, building it on the
// entry's first call. The build is not bounded by ctx: its callers are
// report computations, which run detached under the report flight. The
// building caller records a "lab.open" span. A failed build stays failed
// for the entry's life, as the world's index sets it fails on do.
func (p *Pool) Lab(ctx context.Context, key workload.Key) (*experiments.Lab, error) {
	e, err := p.resident(ctx, key)
	if err != nil {
		return nil, err
	}
	e.labOnce.Do(func() {
		p.metrics.WarmupsInFlight.Add(1)
		defer p.metrics.WarmupsInFlight.Add(-1)
		sp := trace.StartSpan(ctx, "lab.open")
		defer sp.End(trace.String("key", key.String()))
		e.lab, e.labErr = experiments.NewLabOver(e.world)
	})
	return e.lab, e.labErr
}

// resident returns key's entry, opening the world and building its System
// on a miss. ctx bounds the caller's WAIT — a deadline-carrying request
// stops waiting at its deadline — but never the construction itself,
// which runs detached so it always completes and populates the pool for
// the next request. The request that initiates a cold construction
// records a "system.open" span covering the world open (snapshot load or
// data generation) and the System's ANALYZE and index resolution.
//
// A lookup is a miss only when its own flight opened the world, so a
// thundering herd records one miss per construction, not one per
// piled-up request.
func (p *Pool) resident(ctx context.Context, key workload.Key) (*entry, error) {
	if e, ok := p.entries.get(key); ok {
		p.metrics.PoolObserve(key.Workload, true)
		return e, nil
	}
	e, err, shared := p.flight.DoContext(ctx, key, func() (*entry, error) {
		// A flight that completed between our miss and entering DoContext
		// already stored the entry.
		e, ok := p.entries.get(key)
		p.metrics.PoolObserve(key.Workload, ok)
		if ok {
			return e, nil
		}
		p.metrics.WarmupsInFlight.Add(1)
		defer p.metrics.WarmupsInFlight.Add(-1)
		sp := trace.StartSpan(ctx, "system.open")
		defer sp.End(trace.String("key", key.String()))
		w, err := p.openWorld(key)
		if err != nil {
			return nil, err
		}
		sys, err := jobench.NewSystem(w)
		if err != nil {
			return nil, err
		}
		e = &entry{world: w, sys: sys}
		p.entries.put(key, e)
		return e, nil
	})
	if err == nil && shared {
		// Joined another request's in-flight construction: served warm.
		p.metrics.PoolObserve(key.Workload, true)
	}
	return e, err
}

// Len reports the number of resident instances.
func (p *Pool) Len() int { return p.entries.len() }
