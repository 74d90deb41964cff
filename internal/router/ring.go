package router

import (
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
)

// vnodes is the number of ring points each replica contributes. More
// points smooth the key distribution (each replica owns many small arcs
// instead of one big one) and shrink the fraction of keys that move when
// membership changes toward the ideal 1/N.
const vnodes = 64

// AffinityKey canonicalizes a request's (workload, seed, scale) into the
// string the ring hashes. Anything that predicts the router's choice MUST
// derive owners from this same encoding: 'g' formatting is the same
// rendering service.Key uses, so 0.1 and 0.10 collapse to one key.
// Requests that omit workload/seed/scale hash as
// ("", 0, 0) — the router does not know the replicas' defaults, but all
// default-world requests still agree on one owner, which is all affinity
// needs. The workload name is a plain string here on purpose: the router
// stays ignorant of the workload registry and routes names it has never
// heard of.
func AffinityKey(workload string, seed int64, scale float64) string {
	return workload + "/" + strconv.FormatInt(seed, 10) + "/" + strconv.FormatFloat(scale, 'g', -1, 64)
}

// Ring is a consistent-hash ring over replica base URLs. Each replica is
// hashed onto the ring at vnodes points; a key is owned by the first
// replica point at or clockwise after the key's hash. Adding or removing
// one replica therefore only reassigns the arcs that replica's points
// bounded — about 1/N of the key space — while every other key keeps its
// owner, which is what keeps the replicas' LRU system pools hot across
// membership changes.
//
// A Ring is immutable after New; lookups are safe for concurrent use.
type Ring struct {
	points   []ringPoint
	replicas []string
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// NewRing builds a ring over the given replica identifiers (base URLs).
// Duplicates are collapsed; order does not matter (two rings over the
// same set agree on every owner).
func NewRing(replicas []string) *Ring {
	uniq := slices.Clone(replicas)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	r := &Ring{replicas: uniq}
	for i, rep := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(rep + "#" + strconv.Itoa(v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on replica index so owner choice is deterministic even
		// in the astronomically unlikely event of a 64-bit hash collision.
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// Replicas returns the ring's members (deduplicated, sorted).
func (r *Ring) Replicas() []string { return r.replicas }

// Owner returns the replica owning key, ignoring liveness ("" on an empty
// ring).
func (r *Ring) Owner(key string) string {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns all replicas in clockwise order from key's hash, each
// exactly once: the preference order for forwarding (owner first, then
// failover candidates).
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]string, 0, len(r.replicas))
	seen := make([]bool, len(r.replicas))
	for i := 0; i < len(r.points) && len(seq) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			seq = append(seq, r.replicas[p.replica])
		}
	}
	return seq
}

// hash64 hashes a string onto the ring. FNV-64a alone clusters badly on
// the near-identical strings this package feeds it (vnode labels differing
// in one digit), so the result is passed through a splitmix64 finalizer
// for full avalanche — without it one replica can own 10x less than its
// fair share.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
