// Package trace is a zero-dependency, allocation-frugal span tracer for
// the jobench request path. A Trace carries a 64-bit ID — propagated
// between processes via the X-Jobench-Trace header — and accumulates
// named spans (pool lookup, optimize, truecard DP, engine execute, …)
// with durations and key/value attributes. Code that may or may not run
// under a trace starts spans through the context helpers: with no trace
// attached every operation is a no-op on zero-valued handles, so the
// instrumented path pays one nil check and no allocations.
//
// Finished traces land in a fixed-size ring buffer (Store) that each
// process exposes over /v1/traces; see store.go.
package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// Header is the HTTP header that carries the trace ID from a client or
// the router to a replica.
const Header = "X-Jobench-Trace"

// ID is a 64-bit trace identifier, rendered as 16 hex digits.
type ID uint64

// NewID returns a random non-zero trace ID.
func NewID() ID {
	for {
		if id := ID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// String renders the ID as 16 lower-case hex digits.
func (id ID) String() string {
	const hexdig = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdig[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses the 16-hex-digit form; ok is false for anything else
// (including the zero ID, which is reserved for "no trace").
func ParseID(s string) (ID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return ID(v), true
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int64 builds an integer-valued attribute.
func Int64(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Bool builds a boolean-valued attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}

// Span is one finished operation inside a trace.
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Attrs []Attr
}

// Trace accumulates the spans of one request. It is safe for concurrent
// span recording (a request may fan out — report flights, parallel work).
type Trace struct {
	id    ID
	route string
	start time.Time

	mu    sync.Mutex
	dur   time.Duration
	done  bool
	spans []Span
}

// New starts a trace for the given route under the given ID (use NewID
// when the caller is the origin of the request).
func New(id ID, route string) *Trace {
	return &Trace{id: id, route: route, start: time.Now()}
}

// ID returns the trace's identifier.
func (t *Trace) ID() ID { return t.id }

// Route returns the route label the trace was started with.
func (t *Trace) Route() string { return t.route }

// Start returns the trace's start time.
func (t *Trace) Start() time.Time { return t.start }

// Finish seals the trace's total duration (first call wins) and returns
// it. Spans recorded by stragglers after Finish are still kept — a
// detached flight may outlive the request — but the duration is the
// request's, not theirs.
func (t *Trace) Finish() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.dur = time.Since(t.start)
		t.done = true
	}
	return t.dur
}

// Duration returns the sealed duration (zero before Finish).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur
}

func (t *Trace) addSpan(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

type ctxKey struct{}

// NewContext returns ctx with the trace attached.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// IDFromContext returns the attached trace's ID, or 0.
func IDFromContext(ctx context.Context) ID {
	if t := FromContext(ctx); t != nil {
		return t.id
	}
	return 0
}

// Running is an open span. The zero value (no trace in the context) is
// valid: End on it is a no-op, so callers never branch on tracing.
type Running struct {
	t     *Trace
	name  string
	start time.Time
}

// StartSpan opens a span on the trace in ctx; with no trace attached it
// returns a no-op handle.
func StartSpan(ctx context.Context, name string) Running {
	t := FromContext(ctx)
	if t == nil {
		return Running{}
	}
	return Running{t: t, name: name, start: time.Now()}
}

// End closes the span and records it with the given attributes.
func (r Running) End(attrs ...Attr) {
	if r.t == nil {
		return
	}
	r.t.addSpan(Span{Name: r.name, Start: r.start, Dur: time.Since(r.start), Attrs: attrs})
}

// Annotate records an instant (zero-duration) span — an event marker,
// e.g. one replan decision — on the trace in ctx.
func Annotate(ctx context.Context, name string, attrs ...Attr) {
	t := FromContext(ctx)
	if t == nil {
		return
	}
	t.addSpan(Span{Name: name, Start: time.Now(), Attrs: attrs})
}
