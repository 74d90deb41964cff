package service

import (
	"context"
	"strconv"

	"jobench"
	"jobench/internal/experiments"
	"jobench/internal/parallel"
	"jobench/internal/trace"
	"jobench/internal/workload"
	"jobench/internal/world"
)

// Key identifies one resident world in the pool: everything that determines
// the opened world (and the views over it) besides server-wide settings.
// The cache dir participates so two servers sharing one process but
// pointing at different snapshot stores can never alias.
type Key struct {
	// World is the (workload, seed, scale) triple.
	World workload.Key
	// CacheDir is the snapshot store the instance loads from.
	CacheDir string
}

// String renders the key for logs and metrics labels (the cache dir is
// deliberately omitted — it is server-wide in practice and noisy in logs).
func (k Key) String() string {
	return "workload=" + k.World.Workload +
		",seed=" + strconv.FormatInt(k.World.Seed, 10) +
		",scale=" + strconv.FormatFloat(k.World.Scale, 'g', -1, 64)
}

// entry is one resident world and the views over it, each built on first
// use (a server used only for /v1/optimize never pays for a Lab's ANALYZE
// passes and vice versa). Entries are immutable once stored: a lookup that
// adds a view stores a fresh copy.
type entry struct {
	world *world.World
	sys   *jobench.System
	lab   *experiments.Lab
}

// Pool keeps warm worlds resident, keyed by (workload, seed, scale, cache
// dir), with LRU eviction beyond a fixed capacity and single-flight
// construction: a thundering herd of cold requests for one key performs
// exactly one world.Open — whichever of the System and Lab views they
// want — while every other request blocks for (and then shares) the same
// instance. The views share the world's database, index sets and truth
// stores. Construction failures are not cached — the next request
// retries.
//
// All methods are safe for concurrent use.
type Pool struct {
	metrics *Metrics

	// openWorld opens a cold world; injectable so the pool tests can count
	// and stall constructions without generating data.
	openWorld func(Key) (*world.World, error)

	entries *lruMap
	flight  parallel.Flight[Key, *entry]
}

// NewPool builds a pool of at most capacity resident worlds (minimum 1)
// whose cold constructions run through an open function derived from cfg.
func NewPool(cfg Config, metrics *Metrics) *Pool {
	if metrics == nil {
		metrics = NewMetrics()
	}
	capacity := cfg.PoolSize
	if capacity <= 0 {
		capacity = 2
	}
	return &Pool{
		metrics: metrics,
		openWorld: func(k Key) (*world.World, error) {
			return world.Open(world.Options{
				Workload: k.World.Workload,
				Scale:    k.World.Scale, Seed: k.World.Seed, Parallel: cfg.Parallel,
				CacheDir: k.CacheDir, Logf: cfg.logf(),
			})
		},
		entries: newLRUMap(capacity, metrics),
	}
}

// System returns the resident System for key, constructing it (exactly
// once under concurrency) on a miss. ctx bounds the caller's WAIT — a
// deadline-carrying request stops waiting at its deadline — but never the
// construction itself, which runs detached so it always completes and
// populates the pool for the next request. The request that actually
// initiates a cold construction records a "system.open" span covering the
// world open (snapshot load or data generation) and the view's ANALYZE
// and index resolution; joiners share the instance without recording it.
func (p *Pool) System(ctx context.Context, key Key) (*jobench.System, error) {
	e, err := p.resident(ctx, key, "system.open",
		func(e *entry) bool { return e.sys != nil },
		func(p *Pool, e *entry) (err error) {
			e.sys, err = jobench.NewSystem(e.world)
			return err
		})
	if err != nil {
		return nil, err
	}
	return e.sys, nil
}

// Lab returns the resident experiments Lab for key, constructing it
// (exactly once under concurrency) on a miss; ctx bounds the caller's
// wait (never the construction), as in System. The initiator's span is
// "lab.open".
func (p *Pool) Lab(ctx context.Context, key Key) (*experiments.Lab, error) {
	e, err := p.resident(ctx, key, "lab.open",
		func(e *entry) bool { return e.lab != nil },
		func(_ *Pool, e *entry) (err error) {
			e.lab, err = experiments.NewLabOver(e.world, 0)
			return err
		})
	if err != nil {
		return nil, err
	}
	return e.lab, nil
}

// resident returns key's entry once it holds the view has looks for,
// opening the world and building the view as needed (has and build are
// capture-free literals, so the hit path allocates nothing). One flight per key
// serializes both steps, so the stored entry is only ever replaced by the
// flight that owns the key. A caller that joined a flight building the
// OTHER view finds its own still missing and goes round again; by then
// the world is resident, so the second round only builds the view.
//
// Hits and misses count worlds, not views: a lookup is a miss only when
// its own flight opened the world — so a thundering herd records one miss
// per construction, not one per piled-up request.
func (p *Pool) resident(ctx context.Context, key Key, span string, has func(*entry) bool, build func(*Pool, *entry) error) (*entry, error) {
	for {
		if e := p.entries.get(key); e != nil && has(e) {
			p.metrics.PoolObserve(key.World.Workload, true)
			return e, nil
		}
		e, err, shared := p.flight.DoContext(ctx, key, func() (*entry, error) {
			var e entry
			if cur := p.entries.get(key); cur != nil {
				e = *cur
			}
			p.metrics.PoolObserve(key.World.Workload, e.world != nil)
			if has(&e) {
				// A flight that completed between our miss and entering Do
				// already built the view; don't rebuild.
				return &e, nil
			}
			p.metrics.WarmupsInFlight.Add(1)
			defer p.metrics.WarmupsInFlight.Add(-1)
			sp := trace.StartSpan(ctx, span)
			defer func() { sp.End(trace.String("key", key.String())) }()
			if e.world == nil {
				w, err := p.openWorld(key)
				if err != nil {
					return nil, err
				}
				e.world = w
			}
			if err := build(p, &e); err != nil {
				return nil, err
			}
			p.entries.set(key, &e)
			return &e, nil
		})
		if err != nil {
			return nil, err
		}
		if has(e) {
			if shared {
				// Joined another request's in-flight construction: served warm.
				p.metrics.PoolObserve(key.World.Workload, true)
			}
			return e, nil
		}
	}
}

// Len reports the number of resident instances.
func (p *Pool) Len() int { return p.entries.len() }
