// Package query defines the logical query model of the benchmark:
// select-project-join queries over aliased relations with base-table
// predicates and equi-join predicates, and the join graph derived from
// them. Relations of a query are numbered 0..n-1 and sets of relations are
// represented as 64-bit bitsets, which is what the optimizer's dynamic
// programming, the true-cardinality store, and all cardinality providers
// key on.
package query

import (
	"math/bits"
	"strconv"
	"strings"
)

// BitSet is a set of relation indexes. BuildGraph accepts at most 63
// relations per query, so FullSet of any graph's N fits; JOB queries have
// at most 17.
type BitSet uint64

// NewBitSet returns the set containing the given relation indexes.
func NewBitSet(rels ...int) BitSet {
	var s BitSet
	for _, r := range rels {
		s |= 1 << uint(r)
	}
	return s
}

// Bit returns the singleton set {r}.
func Bit(r int) BitSet { return 1 << uint(r) }

// Has reports whether r is in the set.
func (s BitSet) Has(r int) bool { return s&(1<<uint(r)) != 0 }

// Add returns s with r added.
func (s BitSet) Add(r int) BitSet { return s | 1<<uint(r) }

// Remove returns s with r removed.
func (s BitSet) Remove(r int) BitSet { return s &^ (1 << uint(r)) }

// Union returns the set union.
func (s BitSet) Union(o BitSet) BitSet { return s | o }

// Intersect returns the set intersection.
func (s BitSet) Intersect(o BitSet) BitSet { return s & o }

// Minus returns the set difference s \ o.
func (s BitSet) Minus(o BitSet) BitSet { return s &^ o }

// Overlaps reports whether the sets share an element.
func (s BitSet) Overlaps(o BitSet) bool { return s&o != 0 }

// Contains reports whether o is a subset of s.
func (s BitSet) Contains(o BitSet) bool { return s&o == o }

// Empty reports whether the set is empty.
func (s BitSet) Empty() bool { return s == 0 }

// Count returns the number of elements.
func (s BitSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Single reports whether the set has exactly one element.
func (s BitSet) Single() bool { return s != 0 && s&(s-1) == 0 }

// First returns the smallest element of a non-empty set.
func (s BitSet) First() int { return bits.TrailingZeros64(uint64(s)) }

// Elems returns the elements in ascending order.
func (s BitSet) Elems() []int {
	out := make([]int, 0, s.Count())
	for t := s; t != 0; t &= t - 1 {
		out = append(out, bits.TrailingZeros64(uint64(t)))
	}
	return out
}

// ForEach calls f for every element in ascending order.
func (s BitSet) ForEach(f func(r int)) {
	for t := s; t != 0; t &= t - 1 {
		f(bits.TrailingZeros64(uint64(t)))
	}
}

// SubsetsProper calls f for every non-empty proper subset of s. It uses the
// standard descending-subset enumeration trick.
func (s BitSet) SubsetsProper(f func(sub BitSet)) {
	for sub := (s - 1) & s; sub != 0; sub = (sub - 1) & s {
		f(sub)
	}
}

// FullSet returns the set {0, .., n-1}, for n at most 63.
func FullSet(n int) BitSet {
	if n >= 64 {
		panic("query: bitset overflow")
	}
	return BitSet(1)<<uint(n) - 1
}

// String renders the set as {0,2,5}.
func (s BitSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(r int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(r))
	})
	b.WriteByte('}')
	return b.String()
}
