package trace

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// This file is the HTTP edge of tracing that the router and the replicas
// share: beginning a request's trace, finishing it into the ring (with
// the slow-request log line), and serving the ring at /v1/traces.

// Begin starts the trace of one inbound request: it continues the ID the
// caller propagated in the X-Jobench-Trace header or mints a fresh one,
// echoes the ID in the response header, and returns the trace together
// with the request carrying it in its context.
func Begin(w http.ResponseWriter, r *http.Request, route string) (*Trace, *http.Request) {
	id, ok := ParseID(r.Header.Get(Header))
	if !ok {
		id = NewID()
	}
	t := New(id, route)
	w.Header().Set(Header, id.String())
	return t, r.WithContext(NewContext(r.Context(), t))
}

// Finish seals t, adds it to the ring, and — when slow is positive and
// the request took at least that long — logs a "slow request" warning
// with the span summary. attrs are extra key/value pairs for the log
// line (the replica adds the response status).
func (s *Store) Finish(t *Trace, slow time.Duration, lg *slog.Logger, attrs ...any) {
	d := t.Finish()
	s.Add(t)
	if slow <= 0 || d < slow {
		return
	}
	args := append([]any{
		"trace_id", t.ID().String(),
		"route", t.Route(),
		"duration_ms", float64(d) / float64(time.Millisecond),
	}, attrs...)
	lg.Warn("slow request", append(args, "spans", spanSummary(t))...)
}

// spanSummary renders a trace's spans as "name=dur name=dur ..." for the
// slow-request log line.
func spanSummary(t *Trace) string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(none)"
	}
	var b strings.Builder
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", sp.Name, sp.Dur.Round(time.Microsecond))
	}
	return b.String()
}

// Listing is the JSON shape of /v1/traces: recently finished request
// traces, newest first.
type Listing struct {
	Count  int      `json:"count"`
	Traces []Record `json:"traces"`
}

// Serve answers GET /v1/traces from the ring — ?min_ms=N keeps only
// slower traces and ?route=/v1/execute filters by route label — and
// returns the status it wrote (400 for an unusable min_ms).
func (s *Store) Serve(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
			return writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid min_ms %q", v)})
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	recs := s.Snapshot(minDur, q.Get("route"))
	return writeJSON(w, http.StatusOK, Listing{Count: len(recs), Traces: recs})
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return status
}
