package router

import (
	"fmt"
	"testing"
)

// keys returns nKeys distinct affinity keys spanning many (seed, scale)
// worlds.
func testKeys(n int) []string {
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, AffinityKey("imdb", int64(i%97), float64(i)/8))
	}
	return keys
}

func replicaURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return urls
}

// TestRingStability is the consistent-hashing property test: growing the
// ring from N to N+1 replicas may move only the keys the new replica now
// owns — roughly 1/(N+1) of them — and every moved key must have moved TO
// the new replica, never between old ones.
func TestRingStability(t *testing.T) {
	const nKeys = 4000
	keys := testKeys(nKeys)
	for _, n := range []int{2, 3, 5, 8} {
		urls := replicaURLs(n + 1)
		before := NewRing(urls[:n])
		after := NewRing(urls)
		newcomer := urls[n]

		moved := 0
		for _, k := range keys {
			oldOwner, newOwner := before.Owner(k), after.Owner(k)
			if oldOwner == newOwner {
				continue
			}
			moved++
			if newOwner != newcomer {
				t.Fatalf("n=%d: key %q moved %s -> %s, not to the new replica %s",
					n, k, oldOwner, newOwner, newcomer)
			}
		}
		ideal := float64(nKeys) / float64(n+1)
		// vnodes=64 per replica keeps the arc sizes close to ideal; 2.5x is
		// a generous bound that still catches a broken ring (which moves
		// either ~0 or ~all keys).
		if f := float64(moved); f == 0 || f > 2.5*ideal {
			t.Fatalf("n=%d: %d of %d keys moved (ideal %.0f): not consistent",
				n, moved, nKeys, ideal)
		}
	}
}

// TestRingDeterminism: the same key always lands on the same replica, and
// the ring is insensitive to member order and duplicates.
func TestRingDeterminism(t *testing.T) {
	urls := replicaURLs(4)
	a := NewRing(urls)
	b := NewRing([]string{urls[2], urls[0], urls[3], urls[1], urls[0]})
	for _, k := range testKeys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owner differs by construction order: %s vs %s",
				k, a.Owner(k), b.Owner(k))
		}
		if a.Owner(k) != a.Owner(k) {
			t.Fatalf("key %q: owner not stable", k)
		}
	}
}

// TestRingSequence: Sequence lists every replica exactly once.
func TestRingSequence(t *testing.T) {
	r := NewRing(replicaURLs(5))
	for _, k := range testKeys(100) {
		seq := r.Sequence(k)
		if len(seq) != 5 {
			t.Fatalf("Sequence(%q) has %d entries, want 5", k, len(seq))
		}
		seen := map[string]bool{}
		for _, u := range seq {
			if seen[u] {
				t.Fatalf("Sequence(%q) repeats %s", k, u)
			}
			seen[u] = true
		}
	}
}

// TestRingBalance: with vnodes smoothing, no replica owns a wildly
// disproportionate share of the key space.
func TestRingBalance(t *testing.T) {
	const nKeys = 8000
	r := NewRing(replicaURLs(4))
	counts := map[string]int{}
	for _, k := range testKeys(nKeys) {
		counts[r.Owner(k)]++
	}
	ideal := nKeys / 4
	for u, c := range counts {
		if c < ideal/3 || c > ideal*3 {
			t.Fatalf("replica %s owns %d of %d keys (ideal %d): ring is unbalanced",
				u, c, nKeys, ideal)
		}
	}
}

func TestAffinityKeyCanonical(t *testing.T) {
	if AffinityKey("imdb", 42, 0.1) != AffinityKey("imdb", 42, 0.10) {
		t.Fatal("equal scales must canonicalize to one key")
	}
	if AffinityKey("imdb", 42, 0.1) == AffinityKey("imdb", 42, 0.3) {
		t.Fatal("distinct scales must not collide")
	}
	if AffinityKey("imdb", 42, 0.1) == AffinityKey("tpch", 42, 0.1) {
		t.Fatal("different workloads must hash to different affinity keys")
	}
	if got, want := AffinityKey("imdb", 42, 0.1), "imdb/42/0.1"; got != want {
		t.Fatalf(`AffinityKey("imdb", 42, 0.1) = %q, want %q`, got, want)
	}
}
