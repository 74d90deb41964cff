package parallel

import (
	"context"
	"sync"
)

// Flight is a generic single-flight group: concurrent Do calls for one key
// collapse into a single execution of fn, whose result every waiter shares.
// Unlike KeyedOnce, results are NOT cached — once the winning call returns,
// the key is forgotten, so a later Do runs fn again. That makes Flight the
// right shape for expensive fallible work guarded by an external cache (the
// service's system pool, the world's truth stores): a thundering herd of
// cold requests performs the work exactly once, while a failure (or a
// context cancellation surfaced as an error) never poisons future attempts.
//
// The zero value is ready to use.
type Flight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the result of fn for key, executing fn itself — inline, on
// the caller's goroutine — only if no other call for key is in flight;
// otherwise it waits for the in-flight call and returns its result.
// shared reports whether the result came from another caller's execution.
// ctx bounds only a joiner's wait: a joiner whose ctx ends first returns
// ctx.Err() at once, while the initiator's fn runs on (under whatever
// context fn itself closes over). fn runs outside the group's lock, so
// flights of distinct keys proceed in parallel.
//
// fn must not panic: a panicking fn would leave every waiter for the key
// blocked forever.
func (f *Flight[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, err error, shared bool) {
	c, joined := f.join(key)
	if joined {
		return c.wait(ctx, true)
	}
	f.run(key, c, fn)
	return c.v, c.err, false
}

// DoContext is Do with fn detached: it runs on its own goroutine even for
// the initiating caller, so the initiator's wait is bounded by ctx too —
// but the flight itself keeps running to completion. That asymmetry is
// deliberate: the winning fn typically populates an external cache
// (system pool, report cache), and abandoning it halfway because one
// requester's deadline fired would waste the work every other waiter —
// and the next request — could have reused. fn must therefore not close
// over the caller's context for cancellation.
func (f *Flight[K, V]) DoContext(ctx context.Context, key K, fn func() (V, error)) (v V, err error, shared bool) {
	c, joined := f.join(key)
	if !joined {
		go f.run(key, c, fn)
	}
	return c.wait(ctx, joined)
}

// join returns key's in-flight call, registering a new one (joined false)
// when there is none.
func (f *Flight[K, V]) join(key K) (c *flightCall[V], joined bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = make(map[K]*flightCall[V])
	}
	if c, ok := f.m[key]; ok {
		return c, true
	}
	c = &flightCall[V]{done: make(chan struct{})}
	f.m[key] = c
	return c, false
}

// run executes fn as key's flight and releases its waiters.
func (f *Flight[K, V]) run(key K, c *flightCall[V], fn func() (V, error)) {
	c.v, c.err = fn()
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	close(c.done)
}

// wait returns the call's result, or ctx.Err() if ctx ends first.
func (c *flightCall[V]) wait(ctx context.Context, shared bool) (V, error, bool) {
	select {
	case <-c.done:
		return c.v, c.err, shared
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err(), shared
	}
}
