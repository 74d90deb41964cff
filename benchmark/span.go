package main

import (
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the index of the span that caused this one (-1 for an op's root).
// The benchmark records spans from outside the program, around its calls
// into each layer, and keeps them in memory until the workload ends.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Busy is non-zero for an aggregate span: N calls into the layer, made
	// one after another somewhere inside [Start, End], that took Busy ns in
	// total. One optimization calls cardest and costmodel thousands of
	// times, so those calls are recorded as one aggregate per op instead of
	// one span each.
	Busy int64 `json:"busy_ns,omitempty"`
	// N is the count the span carries: calls for an aggregate, otherwise
	// whatever work the layer reports (work units, subgraphs, bytes).
	N int64 `json:"n,omitempty"`
}

func (s span) duration() int64 {
	if s.Busy != 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// recorder collects the spans of one client goroutine; recorders are merged
// when the workload ends, so recording takes no lock.
type recorder struct {
	epoch  time.Time
	spans  []span
	counts map[string]int64
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, counts: make(map[string]int64)}
}

// count adds n to a named counter kept beside the spans, for work a layer
// reports that is not the one count its span carries.
func (r *recorder) count(name string, n int64) { r.counts[name] += n }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, op int32) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: r.now()})
	return id
}

// end closes a span, attaching the count it carries.
func (r *recorder) end(id int32, n int64) {
	r.spans[id].End = r.now()
	r.spans[id].N = n
}

// aggregate records n sequential calls that began at start and were busy
// for busy ns in total.
func (r *recorder) aggregate(name string, parent, op int32, start, busy, n int64) {
	if n == 0 {
		return
	}
	r.spans = append(r.spans, span{
		ID: int32(len(r.spans)), Parent: parent, Op: op, Name: name,
		Start: start, End: r.now(), Busy: busy, N: n,
	})
}

// mergeSpans concatenates the recorders' spans, renumbering ids and parents
// so they stay unique.
func mergeSpans(recs []*recorder) []span {
	var out []span
	for _, r := range recs {
		base := int32(len(out))
		for _, s := range r.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// layerTotals sums, per span name, the spans' durations, self times and
// carried counts.
type layerTotals struct {
	Spans int64 `json:"spans"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
	N     int64 `json:"n"`
}

// selfTimes computes each span's self time — its duration minus the part of
// its interval that child spans cover — and totals by name. Children that
// overlap (parallel siblings) are counted once; an aggregate child covers
// its busy time.
func selfTimes(spans []span) map[string]*layerTotals {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotals{}
			out[s.Name] = t
		}
		dur := s.duration()
		t.Spans++
		t.Total += dur
		t.N += s.N
		t.Self += max(dur-covered(spans, s, children[int32(i)]), 0)
	}
	return out
}

// covered is the length of parent's interval that its children cover.
func covered(spans []span, parent span, kids []int32) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	var sum int64
	for _, k := range kids {
		c := spans[k]
		if c.Busy != 0 {
			sum += c.Busy
			continue
		}
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}
