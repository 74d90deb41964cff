package reopt

import (
	"testing"

	"jobench/internal/query"
)

// stubProv is a fixed table of estimates for Propagator tests.
type stubProv struct{ cards map[query.BitSet]float64 }

func (p stubProv) Card(s query.BitSet) float64 { return p.cards[s] }
func (p stubProv) SansSelection(s query.BitSet, r int) float64 {
	return p.cards[s] * 1000 // recognizable: only reachable via fallthrough
}
func (p stubProv) Name() string { return "stub" }

func bs(rels ...int) query.BitSet {
	var s query.BitSet
	for _, r := range rels {
		s = s.Add(r)
	}
	return s
}

func TestPropagatorEmptyObsIsIdentity(t *testing.T) {
	base := stubProv{cards: map[query.BitSet]float64{bs(0): 5}}
	if _, wrapped := NewPropagator(base, nil).(*Propagator); wrapped {
		t.Error("empty observations must return the base provider unchanged")
	}
}

func TestPropagatorObservedAndScaled(t *testing.T) {
	base := stubProv{cards: map[query.BitSet]float64{
		bs(0):       10,
		bs(0, 1):    100,
		bs(1, 2):    70,
		bs(0, 1, 2): 1000,
	}}
	p := NewPropagator(base, map[query.BitSet]float64{
		bs(0):    40,  // ratio 4
		bs(0, 1): 500, // ratio 5
	})

	// Observed sets return their truth directly.
	if got := p.Card(bs(0)); got != 40 {
		t.Errorf("Card(observed {0}) = %v, want 40", got)
	}
	if got := p.Card(bs(0, 1)); got != 500 {
		t.Errorf("Card(observed {0,1}) = %v, want 500", got)
	}

	// A superset scales by the ratios of a greedy disjoint cover that
	// prefers larger sets: {0,1,2} is covered by {0,1} (ratio 5), after
	// which {0} no longer fits — est 1000 x 5, not 1000 x 4 or x 20.
	if got := p.Card(bs(0, 1, 2)); got != 5000 {
		t.Errorf("Card({0,1,2}) = %v, want 5000 (ratio of the largest covering observation)", got)
	}

	// A set containing no observation keeps the base estimate.
	if got := p.Card(bs(1, 2)); got != 70 {
		t.Errorf("Card({1,2}) = %v, want untouched 70", got)
	}

	// SansSelection falls through to the base estimator.
	if got := p.SansSelection(bs(0), 0); got != 10000 {
		t.Errorf("SansSelection = %v, want base's 10000", got)
	}
	if got := p.Name(); got != "stub + feedback" {
		t.Errorf("Name() = %q", got)
	}
}

func TestPropagatorDisjointRatiosMultiply(t *testing.T) {
	base := stubProv{cards: map[query.BitSet]float64{
		bs(0):       10,
		bs(1):       20,
		bs(0, 1, 2): 1000,
	}}
	p := NewPropagator(base, map[query.BitSet]float64{
		bs(0): 30, // ratio 3
		bs(1): 40, // ratio 2
	})
	// Both singletons fit disjointly under {0,1,2}: 1000 x 3 x 2.
	if got := p.Card(bs(0, 1, 2)); got != 6000 {
		t.Errorf("Card({0,1,2}) = %v, want 6000 (both corrections applied)", got)
	}
}

func TestPropagatorClampsToOne(t *testing.T) {
	base := stubProv{cards: map[query.BitSet]float64{bs(0): 100, bs(0, 1): 0.5}}
	p := NewPropagator(base, map[query.BitSet]float64{bs(0): 0})
	if got := p.Card(bs(0)); got != 1 {
		t.Errorf("observed zero must clamp to 1, got %v", got)
	}
	if got := p.Card(bs(0, 1)); got < 1 {
		t.Errorf("scaled estimate %v below 1", got)
	}
}
