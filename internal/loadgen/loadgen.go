// Package loadgen is the chaos and smoke client of the serving tier: it
// replays optimize, execute and estimate requests for one world at
// configurable ratios against a router or a single serve replica, from a
// fixed number of concurrent workers for a fixed duration. Each worker
// records per-class latencies into its own log-bucketed Histogram (no
// shared counters on the hot path) and classifies every failure; the
// merged result reports throughput, p50/p90/p99/p999, failure classes and
// deadline overruns per request class and overall, and marshals to the
// JSON artifact `make chaos-fleet` gates on. The serving tier's latency
// benchmark is benchmark/'s serve workloads, not this package.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"jobench/internal/deadline"
	"jobench/internal/trace"
)

// Class names accepted in a Mix.
const (
	ClassOptimize = "optimize"
	ClassExecute  = "execute"
	ClassEstimate = "estimate"
)

// classPaths maps each class to the endpoint its requests POST to.
var classPaths = map[string]string{
	ClassOptimize: "/v1/optimize",
	ClassExecute:  "/v1/execute",
	ClassEstimate: "/v1/estimate",
}

// Failure class names in ClassResult.Failures. Lumping everything into
// one error count hides exactly the distinction chaos runs exist to make:
// a 429 is the system protecting itself (correct behavior under overload),
// a timeout is a deadline doing its job, and a transport error or stray
// 5xx is an actual failure.
const (
	FailTimeout   = "timeout"      // client deadline expired, or a 504 from the target
	FailShed      = "shed"         // 429: load shed by admission control
	FailServer    = "server_error" // other 5xx
	FailClient    = "client_error" // 4xx other than 429
	FailTransport = "transport"    // connection-level error, no HTTP response
)

// classifyFailure buckets one request outcome; "" means success.
func classifyFailure(status int, err error) string {
	switch {
	case err != nil:
		if errors.Is(err, context.DeadlineExceeded) {
			return FailTimeout
		}
		return FailTransport
	case status == http.StatusTooManyRequests:
		return FailShed
	case status == http.StatusGatewayTimeout:
		return FailTimeout
	case status >= 500:
		return FailServer
	case status >= 400:
		return FailClient
	}
	return ""
}

// Config configures one load run.
type Config struct {
	// Target is the base URL the traffic is aimed at — a router or a
	// single replica; the generator does not care which.
	Target string
	// Duration is how long the workers fire (default 10s).
	Duration time.Duration
	// Concurrency is the number of workers, each running one synchronous
	// request loop (default 8).
	Concurrency int
	// Mix maps class name to relative weight; classes absent or weighted 0
	// are never issued. Empty means the DefaultMix.
	Mix map[string]int
	// Seed drives every random choice (class and query selection), so a
	// run is reproducible given the same config (default 1).
	Seed int64
	// WorldSeed and Scale select the one (seed, scale) world of the
	// target's default workload the requests ask for; they ride in every
	// request body, so the router's affinity key is the same for the whole
	// run and it all lands on that world's one owner replica. Zero values
	// let the server defaults apply.
	WorldSeed int64
	Scale     float64
	// Queries are the query ids every request picks from. Empty means
	// fetch the world's list from Target's /v1/queries before the clock
	// starts (which also warms the target's system pool).
	Queries []string
	// RequestTimeout, when positive, bounds every request client-side AND
	// rides along as an absolute X-Jobench-Deadline header, so the target
	// tier can enforce the same deadline internally. Latencies beyond
	// RequestTimeout+DeadlineGrace count as deadline overruns — the
	// deadline-enforcement check a chaos run asserts on.
	RequestTimeout time.Duration
	// DeadlineGrace is the slack allowed over RequestTimeout before a
	// request counts as a deadline overrun (default 500ms).
	DeadlineGrace time.Duration
	// Logger receives progress diagnostics (default: discard).
	Logger *slog.Logger
}

// DefaultMix is the standing traffic shape: mostly plan-only requests,
// some executions and estimates.
var DefaultMix = map[string]int{
	ClassOptimize: 4,
	ClassExecute:  2,
	ClassEstimate: 3,
}

// ClassResult is the measured outcome for one request class.
type ClassResult struct {
	Requests      int64     `json:"requests"`
	Errors        int64     `json:"errors"`
	ThroughputRPS float64   `json:"throughput_rps"`
	Latency       LatencyMS `json:"latency_ms"`
	// ErrorRate is Errors/Requests (0 when no requests ran).
	ErrorRate float64 `json:"error_rate"`
	// Failures breaks Errors down by failure class (timeout, shed,
	// server_error, client_error, transport); absent when everything
	// succeeded.
	Failures map[string]int64 `json:"failures,omitempty"`
	// DeadlineOverruns counts requests observed to take longer than
	// Config.RequestTimeout+DeadlineGrace — each one is a deadline the
	// serving tier failed to enforce (always 0 without a RequestTimeout).
	DeadlineOverruns int64 `json:"deadline_overruns"`
	// SlowTraces are the class's slowest requests with the trace IDs the
	// generator stamped on them (X-Jobench-Trace) — p99 exemplars to look
	// up in the target's /v1/traces.
	SlowTraces []TraceExemplar `json:"slow_traces,omitempty"`
}

// TraceExemplar pairs one request's trace ID with its measured latency.
type TraceExemplar struct {
	TraceID   string  `json:"trace_id"`
	LatencyMS float64 `json:"latency_ms"`
}

// exemplarsPerClass bounds the slow-trace exemplars kept per class.
const exemplarsPerClass = 4

// recordExemplar keeps the top exemplarsPerClass slowest entries, sorted
// slowest first.
func recordExemplar(list []TraceExemplar, e TraceExemplar) []TraceExemplar {
	i := sort.Search(len(list), func(i int) bool { return list[i].LatencyMS < e.LatencyMS })
	if i >= exemplarsPerClass {
		return list
	}
	list = append(list, TraceExemplar{})
	copy(list[i+1:], list[i:])
	list[i] = e
	if len(list) > exemplarsPerClass {
		list = list[:exemplarsPerClass]
	}
	return list
}

// LatencyMS is a latency summary in milliseconds.
type LatencyMS struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// Result is one load run's report, the JSON artifact chaos-fleet checks.
type Result struct {
	Schema          string                 `json:"schema"`
	Target          string                 `json:"target"`
	DurationSeconds float64                `json:"duration_seconds"`
	Concurrency     int                    `json:"concurrency"`
	Mix             map[string]int         `json:"mix"`
	Scale           float64                `json:"scale"`
	Total           ClassResult            `json:"total"`
	Classes         map[string]ClassResult `json:"classes"`
}

// Schema identifies the Result JSON layout; bump when fields change
// incompatibly so downstream tooling can tell artifacts apart.
const Schema = "jobench-loadgen/v1"

// Run fires the configured load and reports the merged result. It returns
// an error only when the run could not start (bad config, unreachable
// target while fetching the query list); request failures during the run
// are counted per class, not fatal.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: no target")
	}
	cfg.Target = strings.TrimRight(cfg.Target, "/")
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = DefaultMix
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}

	classes, weights, totalWeight := normalizeMix(cfg.Mix)
	if totalWeight == 0 {
		return nil, fmt.Errorf("loadgen: mix has no positive weights")
	}
	for c := range cfg.Mix {
		if classPaths[c] == "" {
			return nil, fmt.Errorf("loadgen: unknown class %q (optimize|execute|estimate)", c)
		}
	}
	client := &http.Client{}
	queries := cfg.Queries
	if len(queries) == 0 {
		var err error
		queries, err = fetchQueries(ctx, client, cfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: fetching queries from %s: %w", cfg.Target, err)
		}
		logf("loadgen: fetched %d queries from %s", len(queries), cfg.Target)
	}

	if cfg.DeadlineGrace <= 0 {
		cfg.DeadlineGrace = 500 * time.Millisecond
	}

	type workerState struct {
		hists     map[string]*Histogram
		errors    map[string]int64
		failures  map[string]map[string]int64
		overruns  map[string]int64
		exemplars map[string][]TraceExemplar
	}
	states := make([]workerState, cfg.Concurrency)
	for i := range states {
		states[i].hists = make(map[string]*Histogram, len(classes))
		states[i].errors = make(map[string]int64, len(classes))
		states[i].failures = make(map[string]map[string]int64, len(classes))
		states[i].overruns = make(map[string]int64, len(classes))
		states[i].exemplars = make(map[string][]TraceExemplar, len(classes))
		for _, c := range classes {
			states[i].hists[c] = &Histogram{}
			states[i].failures[c] = make(map[string]int64)
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	logf("loadgen: %d workers x %v against %s (mix %v)",
		cfg.Concurrency, cfg.Duration, cfg.Target, cfg.Mix)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			st := &states[w]
			for runCtx.Err() == nil {
				class := pickClass(rng, classes, weights, totalWeight)
				// Each request gets its own deadline inside the run window;
				// the absolute header tells the serving tier to enforce it
				// end-to-end, and the client-side ctx is the backstop.
				reqCtx, reqCancel := runCtx, context.CancelFunc(func() {})
				if cfg.RequestTimeout > 0 {
					reqCtx, reqCancel = context.WithTimeout(runCtx, cfg.RequestTimeout)
				}
				req, err := buildRequest(reqCtx, cfg, classPaths[class], queries[rng.Intn(len(queries))])
				if err != nil {
					reqCancel()
					return // only fails on a broken config; don't spin
				}
				if cfg.RequestTimeout > 0 {
					deadline.Set(req.Header, time.Now().Add(cfg.RequestTimeout))
				}
				// Stamp a trace ID on every request so slow outliers can be
				// looked up in the target's /v1/traces afterwards.
				tid := trace.NewID()
				req.Header.Set(trace.Header, tid.String())
				t0 := time.Now()
				resp, err := client.Do(req)
				elapsed := time.Since(t0)
				status := 0
				if err == nil {
					status = resp.StatusCode
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				} else if runCtx.Err() != nil {
					reqCancel()
					return // run window closed mid-request, not a real failure
				}
				reqCancel()
				if fail := classifyFailure(status, err); fail != "" {
					st.errors[class]++
					st.failures[class][fail]++
				}
				if cfg.RequestTimeout > 0 && elapsed > cfg.RequestTimeout+cfg.DeadlineGrace {
					st.overruns[class]++
				}
				st.hists[class].Record(elapsed)
				if err == nil {
					st.exemplars[class] = recordExemplar(st.exemplars[class], TraceExemplar{
						TraceID:   tid.String(),
						LatencyMS: float64(elapsed.Microseconds()) / 1000,
					})
				}
			}
		}(i)
	}
	wg.Wait()
	// Requests in flight at the deadline are allowed to finish; throughput
	// divides by the real window, not the nominal duration.
	elapsed := time.Since(start)

	res := &Result{
		Schema:          Schema,
		Target:          cfg.Target,
		DurationSeconds: elapsed.Seconds(),
		Concurrency:     cfg.Concurrency,
		Mix:             cfg.Mix,
		Scale:           cfg.Scale,
		Classes:         make(map[string]ClassResult, len(classes)),
	}
	total := &Histogram{}
	var totalErrs, totalOverruns int64
	totalFails := make(map[string]int64)
	for _, c := range classes {
		h := &Histogram{}
		var errs, overruns int64
		fails := make(map[string]int64)
		var slow []TraceExemplar
		for i := range states {
			h.Merge(states[i].hists[c])
			errs += states[i].errors[c]
			overruns += states[i].overruns[c]
			for k, n := range states[i].failures[c] {
				fails[k] += n
			}
			for _, e := range states[i].exemplars[c] {
				slow = recordExemplar(slow, e)
			}
		}
		cr := classResult(h, errs, overruns, fails, elapsed)
		cr.SlowTraces = slow
		res.Classes[c] = cr
		total.Merge(h)
		totalErrs += errs
		totalOverruns += overruns
		for k, n := range fails {
			totalFails[k] += n
		}
	}
	res.Total = classResult(total, totalErrs, totalOverruns, totalFails, elapsed)
	return res, nil
}

func classResult(h *Histogram, errs, overruns int64, fails map[string]int64, window time.Duration) ClassResult {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	var rate float64
	if h.Count() > 0 {
		rate = float64(errs) / float64(h.Count())
	}
	if len(fails) == 0 {
		fails = nil
	}
	return ClassResult{
		Requests:         h.Count(),
		Errors:           errs,
		ErrorRate:        rate,
		Failures:         fails,
		DeadlineOverruns: overruns,
		ThroughputRPS:    float64(h.Count()) / window.Seconds(),
		Latency: LatencyMS{
			P50:  ms(h.Quantile(0.50)),
			P90:  ms(h.Quantile(0.90)),
			P99:  ms(h.Quantile(0.99)),
			P999: ms(h.Quantile(0.999)),
			Mean: ms(h.Mean()),
			Max:  ms(h.Max()),
		},
	}
}

// normalizeMix returns the positively-weighted classes in deterministic
// (sorted) order with their weights and the weight sum.
func normalizeMix(mix map[string]int) (classes []string, weights []int, total int) {
	for c, w := range mix {
		if w > 0 {
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	weights = make([]int, len(classes))
	for i, c := range classes {
		weights[i] = mix[c]
		total += mix[c]
	}
	return classes, weights, total
}

func pickClass(rng *rand.Rand, classes []string, weights []int, total int) string {
	n := rng.Intn(total)
	for i, w := range weights {
		if n < w {
			return classes[i]
		}
		n -= w
	}
	return classes[len(classes)-1]
}

// buildRequest constructs one POST of query q to path, with the world's
// (seed, scale) in the body so the router's affinity hashing sees it.
func buildRequest(ctx context.Context, cfg Config, path, q string) (*http.Request, error) {
	body := map[string]any{"query": q}
	if cfg.WorldSeed != 0 {
		body["seed"] = cfg.WorldSeed
	}
	if cfg.Scale > 0 {
		body["scale"] = cfg.Scale
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Target+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// fetchQueries asks the target for the world's query ids (GET
// /v1/queries). It runs before the measured window opens, so it doubles
// as a warmup of the world's system pool (on its owning replica when a
// router is the target).
func fetchQueries(ctx context.Context, client *http.Client, cfg Config) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	q := url.Values{}
	if cfg.WorldSeed != 0 {
		q.Set("seed", fmt.Sprint(cfg.WorldSeed))
	}
	if cfg.Scale > 0 {
		q.Set("scale", fmt.Sprintf("%g", cfg.Scale))
	}
	u := cfg.Target + "/v1/queries"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var out struct {
		Queries []string `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.Queries) == 0 {
		return nil, fmt.Errorf("target reported an empty workload")
	}
	return out.Queries, nil
}
