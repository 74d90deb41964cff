package service

import "sync"

// lruMap is the pool's resident-instance store: a mutex-guarded map plus a
// recency list, evicting the least-recently-used entry once the map grows
// past its capacity. An evicted world is simply dropped — worlds and their
// views are immutable and requests that already hold a reference keep it
// alive until they finish.
type lruMap struct {
	mu      sync.Mutex
	cap     int
	m       map[Key]*entry
	order   []Key // least-recently-used first
	metrics *Metrics
}

func newLRUMap(capacity int, metrics *Metrics) *lruMap {
	return &lruMap{cap: capacity, m: make(map[Key]*entry), metrics: metrics}
}

// get returns the entry for key (nil if absent) and marks it
// most-recently-used. Stored entries are never mutated, so the pointer is
// safe to read without the lock.
func (l *lruMap) get(key Key) *entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.m[key]
	if !ok {
		return nil
	}
	l.touch(key)
	return e
}

// set stores key's entry, marks it most-recently-used, and evicts the LRU
// entry if the map outgrew its capacity.
func (l *lruMap) set(key Key, e *entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m[key] = e
	l.touch(key)
	// The order-list bound keeps a map/order mismatch (impossible while
	// keys stay comparable-sane) from turning into an index panic.
	for len(l.m) > l.cap && len(l.order) > 0 {
		victim := l.order[0]
		l.order = l.order[1:]
		delete(l.m, victim)
		l.metrics.PoolEvictions.Add(1)
	}
}

// touch moves key to the most-recently-used end of the order list.
func (l *lruMap) touch(key Key) {
	for i, k := range l.order {
		if k == key {
			l.order = append(append(l.order[:i:i], l.order[i+1:]...), key)
			return
		}
	}
	l.order = append(l.order, key)
}

func (l *lruMap) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}
