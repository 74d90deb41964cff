// Package serving is the HTTP skeleton the replica (internal/service) and
// the router (internal/router) share: one lifecycle (listen, serve, drain,
// then cancel), one request wrapper (trace, end-to-end deadline, status,
// panic recovery and the JSON error body), one JSON writer and one
// Prometheus text exposition writer.
package serving

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"jobench/internal/deadline"
	"jobench/internal/trace"
)

// ListenAndServe binds addr, logs "listening" with the bound address and
// attrs, and runs serve on the listener.
func ListenAndServe(ctx context.Context, addr string, serve func(context.Context, net.Listener) error, lg *slog.Logger, attrs ...any) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	lg.Info("listening", append([]any{"addr", ln.Addr().String()}, attrs...)...)
	return serve(ctx, ln)
}

type rootKey struct{}

// Serve runs h on ln until ctx is cancelled, then drains: it stops
// accepting, lets in-flight requests run undisturbed for up to grace, and
// only then cancels the stragglers — a deploy-time SIGTERM does not fail
// requests that were about to succeed. Every request context descends
// from one request root that is detached from ctx, so cancellation
// reaches handlers (and the work they share, see Root) only once the
// grace period is spent or Serve returns. Cancelled stragglers get as long
// again to return; Serve reports an error only for a handler that
// outlives that too.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration, lg *slog.Logger) error {
	root, cancelRequests := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelRequests()
	base := context.WithValue(root, rootKey{}, root)
	srv := &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return base },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		lg.Info("draining in-flight requests", "cause", context.Cause(ctx), "grace", grace)
		err := shutdown(srv, grace)
		<-errc // Serve has returned http.ErrServerClosed
		if err != nil {
			lg.Warn("cancelling requests still running after the grace period")
			cancelRequests()
			if err = shutdown(srv, grace); err != nil {
				_ = srv.Close()
			}
		}
		return err
	}
}

// shutdown closes srv's listeners and waits up to grace for its
// connections to go idle.
func shutdown(srv *http.Server, grace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return srv.Shutdown(ctx)
}

// Root returns the request root a request context descends from: the
// context for work that several requests share (a report computation
// they all wait on), so that no one requester's disconnect or deadline
// cancels it while shutdown still does. Outside Serve (under httptest) it
// is context.Background().
func Root(ctx context.Context) context.Context {
	if root, ok := ctx.Value(rootKey{}).(context.Context); ok {
		return root
	}
	return context.Background()
}

// HandlerFunc is one route: it returns the status it answered with, and a
// non-nil error, which Mux writes as the JSON error body under that status.
type HandlerFunc func(w http.ResponseWriter, r *http.Request) (status int, err error)

// Mux routes one server's requests, wrapping every route in the request
// plumbing: the trace (continued from X-Jobench-Trace or minted, echoed
// in the response, finished into Traces with the slow-request log), the
// end-to-end deadline, panic recovery and the JSON error body. The ops
// surface — /healthz, /metrics and /v1/traces — is never traced.
type Mux struct {
	// Traces receives every traced request's trace; ServeTraces serves it.
	Traces *trace.Store
	// Slow logs a span summary for every traced request at least this
	// slow (0 disables outlier logging).
	Slow time.Duration
	// Logger receives panic and slow-request lines.
	Logger *slog.Logger
	// MaxDeadline caps the end-to-end deadline: a request runs until the
	// X-Jobench-Deadline it carries or MaxDeadline from its arrival,
	// whichever is earlier. 0 applies the header alone.
	MaxDeadline time.Duration
	// Panics counts handler panics recovered into 500 responses.
	Panics *atomic.Int64
	// Observe, when set, records every completed request by route label.
	Observe func(route string, status int, d time.Duration)

	mux http.ServeMux
}

// ServeHTTP dispatches to the registered routes.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// Handle registers h under a Go 1.22 mux pattern ("METHOD /path"). The
// pattern's path labels the route's trace and Observe; a subtree pattern
// ("/v1/") labels each request by its own path.
func (m *Mux) Handle(pattern string, h HandlerFunc) {
	label := pattern[strings.IndexByte(pattern, ' ')+1:]
	traced := label != "/healthz" && label != "/metrics" && label != "/v1/traces"
	m.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := label
		if strings.HasSuffix(route, "/") {
			route = r.URL.Path
		}
		var tr *trace.Trace
		if traced {
			// Continue the ID the caller propagated, or mint one.
			id, ok := trace.ParseID(r.Header.Get(trace.Header))
			if !ok {
				id = trace.NewID()
			}
			tr = trace.New(id, route)
			w.Header().Set(trace.Header, id.String())
			r = r.WithContext(trace.NewContext(r.Context(), tr))
		}
		// An absolute deadline means upstream queueing and retries consume
		// one budget instead of each resetting it; every stage downstream —
		// forward attempts, pool lookup, admission wait, truecard DP,
		// engine execution — honours the request context.
		dl, ok := deadline.FromRequest(r)
		if limit := start.Add(m.MaxDeadline); m.MaxDeadline > 0 && (!ok || limit.Before(dl)) {
			dl, ok = limit, true
		}
		if ok {
			ctx, cancel := context.WithDeadline(r.Context(), dl)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		status, err := m.recovered(sw, r, h, route, tr)
		if err != nil {
			writeError(sw, status, err)
		}
		if m.Observe != nil {
			m.Observe(route, status, time.Since(start))
		}
		if tr != nil {
			m.finish(tr, status)
		}
	})
}

// finish seals tr into the ring and, when it took at least Slow, logs a
// "slow request" warning with its span summary.
func (m *Mux) finish(tr *trace.Trace, status int) {
	d := tr.Finish()
	m.Traces.Add(tr)
	if m.Slow <= 0 || d < m.Slow {
		return
	}
	var spans strings.Builder
	for _, sp := range tr.Spans() {
		fmt.Fprintf(&spans, " %s=%s", sp.Name, sp.Dur.Round(time.Microsecond))
	}
	m.Logger.Warn("slow request",
		"trace_id", tr.ID().String(),
		"route", tr.Route(),
		"duration_ms", float64(d)/float64(time.Millisecond),
		"status", status,
		"spans", cmp.Or(strings.TrimSpace(spans.String()), "(none)"))
}

// statusWriter remembers whether the handler has started writing a
// response, so panic recovery knows whether a 500 can still be sent or
// the connection is beyond saving.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// recovered runs h with panic recovery: a handler panic becomes a 500
// (with the trace ID in the body and a logged stack) instead of tearing
// down the whole process's connection. http.ErrAbortHandler re-panics —
// it is net/http's sanctioned "sever this connection" and must reach the
// server loop.
func (m *Mux) recovered(w *statusWriter, r *http.Request, h HandlerFunc, route string, tr *trace.Trace) (status int, err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		m.Panics.Add(1)
		traceID := ""
		if tr != nil {
			traceID = tr.ID().String()
		}
		m.Logger.Error("handler panic recovered",
			"route", route,
			"trace_id", traceID,
			"panic", fmt.Sprint(p),
			"stack", string(debug.Stack()))
		status = http.StatusInternalServerError
		err = nil
		if !w.wrote {
			writeError(w, status, fmt.Errorf("internal error (trace %s)", traceID))
		}
	}()
	return h(w, r)
}

// ServeTraces answers GET /v1/traces from the ring, newest first:
// ?min_ms=N keeps only slower traces and ?route=/v1/execute filters by
// route label.
func (m *Mux) ServeTraces(w http.ResponseWriter, r *http.Request) (int, error) {
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
			return http.StatusBadRequest, fmt.Errorf("invalid min_ms %q", v)
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	recs := m.Traces.Snapshot(minDur, q.Get("route"))
	return WriteJSON(w, http.StatusOK, Listing{Count: len(recs), Traces: recs})
}

// Listing is the JSON shape of /v1/traces: recently finished request
// traces, newest first.
type Listing struct {
	Count  int            `json:"count"`
	Traces []trace.Record `json:"traces"`
}

// WriteJSON writes v as an indented JSON body under status and returns
// status, so a handler can end with it.
func WriteJSON(w http.ResponseWriter, status int, v any) (int, error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return status, nil
}

// writeError writes the {"error": "..."} body every endpoint fails with.
func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}
