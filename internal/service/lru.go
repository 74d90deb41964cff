package service

import (
	"sync"
	"sync/atomic"
)

// lru is the service's one bounded cache — the pool's resident worlds and
// the memoized reports: a mutex-guarded map plus a recency list, evicting
// the least-recently-used entry once the map grows past its capacity.
// Values are immutable once stored, so a value returned by get is safe to
// use without the lock; an evicted value is simply dropped, and callers
// that already hold it keep it alive until they finish.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[K]V
	order []K // least-recently-used first

	// evictions, when non-nil, counts every eviction.
	evictions *atomic.Int64
}

func newLRU[K comparable, V any](capacity int, evictions *atomic.Int64) *lru[K, V] {
	return &lru[K, V]{cap: capacity, m: make(map[K]V), evictions: evictions}
}

// get returns key's value and marks it most-recently-used.
func (l *lru[K, V]) get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[key]
	if ok {
		l.touch(key)
	}
	return v, ok
}

// put stores key's value, marks it most-recently-used, and evicts the LRU
// entry if the map outgrew its capacity.
func (l *lru[K, V]) put(key K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m[key] = v
	l.touch(key)
	// The order-list bound keeps a key that never equals itself (a NaN
	// scale, which the request parsers reject) from turning into an index
	// panic.
	for len(l.m) > l.cap && len(l.order) > 0 {
		delete(l.m, l.order[0])
		l.order = l.order[1:]
		if l.evictions != nil {
			l.evictions.Add(1)
		}
	}
}

// touch moves key to the most-recently-used end of the order list.
func (l *lru[K, V]) touch(key K) {
	for i, k := range l.order {
		if k == key {
			l.order = append(append(l.order[:i:i], l.order[i+1:]...), key)
			return
		}
	}
	l.order = append(l.order, key)
}

func (l *lru[K, V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}
