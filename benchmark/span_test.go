package main

import "testing"

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},  // nested child
		{ID: 2, Parent: 1, Name: "aa", Start: 15, End: 25}, // grandchild: counts against a, not op
		{ID: 3, Parent: 0, Name: "b", Start: 30, End: 60},  // sibling overlapping a by 10
		{ID: 4, Parent: 0, Name: "b", Start: 90, End: 120}, // sibling running past the parent: clipped
	}
	got := selfTimes(spans)
	// op: 100 - |[10,60] u [90,100]| = 100 - 60.
	if got["op"].Self != 40 || got["op"].Total != 100 {
		t.Errorf("op: self %d total %d, want 40 and 100", got["op"].Self, got["op"].Total)
	}
	if got["a"].Self != 20 {
		t.Errorf("a: self %d, want 20", got["a"].Self)
	}
	if got["aa"].Self != 10 {
		t.Errorf("aa: self %d, want 10", got["aa"].Self)
	}
	if got["b"].Self != 60 || got["b"].Spans != 2 {
		t.Errorf("b: self %d over %d spans, want 60 over 2", got["b"].Self, got["b"].Spans)
	}
}

func TestSelfTimeAggregateChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "enum.dp", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "cardest.card", Start: 5, End: 990, Busy: 300, N: 40},
		{ID: 2, Parent: 0, Name: "costmodel.cost", Start: 6, End: 995, Busy: 200, N: 70},
	}
	got := selfTimes(spans)
	if got["enum.dp"].Self != 500 {
		t.Errorf("enum.dp self = %d, want 1000-300-200", got["enum.dp"].Self)
	}
	if c := got["cardest.card"]; c.Total != 300 || c.N != 40 {
		t.Errorf("cardest.card total %d n %d, want 300 and 40", c.Total, c.N)
	}
}

func TestMergeSpansKeepsParents(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	a.spans = []span{{ID: 0, Parent: -1, Name: "op"}, {ID: 1, Parent: 0, Name: "x"}}
	b.spans = []span{{ID: 0, Parent: -1, Name: "op"}, {ID: 1, Parent: 0, Name: "y"}}
	m := mergeSpans([]*recorder{a, b})
	if len(m) != 4 || m[3].ID != 3 || m[3].Parent != 2 || m[2].Parent != -1 {
		t.Errorf("merged = %+v", m)
	}
}
