package service

import (
	"cmp"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jobench/internal/fault"
	"jobench/internal/serving"
)

// Metrics is the service's ops counters, rendered at /metrics in the
// Prometheus text exposition format: request counts and latencies per
// route, pool hits/misses/evictions, in-flight warmups and report-cache
// hits fit in a mutex-guarded map plus a few atomics.
type Metrics struct {
	mu        sync.Mutex
	requests  map[routeCode]*routeStats
	workloads map[string]*workloadStats

	PoolHits        atomic.Int64
	PoolMisses      atomic.Int64
	PoolEvictions   atomic.Int64
	WarmupsInFlight atomic.Int64
	ReportHits      atomic.Int64
	ReportMisses    atomic.Int64
	Replans         atomic.Int64
	Panics          atomic.Int64

	// admission, when set, contributes the report admission-control gauges
	// (waiting, units in use, total admitted).
	admission *admission

	// replicaID, when set, is exported as jobench_replica_info{replica=...}
	// so a fleet's scraped series are tellable apart.
	replicaID string

	// faultStats, when set, contributes the injected-fault counters
	// (jobench_fault_injected_total{kind=...}) so a chaos run can account
	// for every fault it injected; nil (production) renders nothing.
	faultStats func() fault.Stats
}

type routeCode struct {
	route string
	code  int
}

type routeStats struct {
	count   int64
	seconds float64
}

// workloadStats counts pool and report-cache traffic for one workload, the
// jobench_pool_requests_total / jobench_report_cache_requests_total label
// sets.
type workloadStats struct {
	poolHits, poolMisses     int64
	reportHits, reportMisses int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:  make(map[routeCode]*routeStats),
		workloads: make(map[string]*workloadStats),
	}
}

func (m *Metrics) wstats(workload string) *workloadStats {
	ws := m.workloads[workload]
	if ws == nil {
		ws = &workloadStats{}
		m.workloads[workload] = ws
	}
	return ws
}

// PoolObserve records one pool lookup for a workload: the unlabeled
// totals plus the per-workload series.
func (m *Metrics) PoolObserve(workload string, hit bool) {
	if hit {
		m.PoolHits.Add(1)
	} else {
		m.PoolMisses.Add(1)
	}
	m.mu.Lock()
	ws := m.wstats(workload)
	if hit {
		ws.poolHits++
	} else {
		ws.poolMisses++
	}
	m.mu.Unlock()
}

// ReportObserve records one report-cache lookup for a workload: the
// unlabeled totals plus the per-workload series.
func (m *Metrics) ReportObserve(workload string, hit bool) {
	if hit {
		m.ReportHits.Add(1)
	} else {
		m.ReportMisses.Add(1)
	}
	m.mu.Lock()
	ws := m.wstats(workload)
	if hit {
		ws.reportHits++
	} else {
		ws.reportMisses++
	}
	m.mu.Unlock()
}

// Observe records one completed request.
func (m *Metrics) Observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := routeCode{route, code}
	st := m.requests[k]
	if st == nil {
		st = &routeStats{}
		m.requests[k] = st
	}
	st.count++
	st.seconds += d.Seconds()
}

// Render writes every series into e, label sets sorted for a stable
// (diffable, testable) exposition.
func (m *Metrics) Render(e *serving.Exposition) {
	m.mu.Lock()
	keys := slices.SortedFunc(maps.Keys(m.requests), func(a, b routeCode) int {
		return cmp.Or(strings.Compare(a.route, b.route), a.code-b.code)
	})
	e.Metric("jobench_requests_total", "Completed HTTP requests by route and status code.")
	for _, k := range keys {
		e.Sample(m.requests[k].count, "route", k.route, "code", strconv.Itoa(k.code))
	}
	e.Metric("jobench_request_seconds_total", "Cumulative request latency by route and status code.")
	for _, k := range keys {
		e.Sample(m.requests[k].seconds, "route", k.route, "code", strconv.Itoa(k.code))
	}
	if len(m.workloads) > 0 {
		wnames := slices.Sorted(maps.Keys(m.workloads))
		e.Metric("jobench_pool_requests_total", "Pool lookups by workload and outcome.")
		for _, w := range wnames {
			e.Sample(m.workloads[w].poolHits, "workload", w, "outcome", "hit")
			e.Sample(m.workloads[w].poolMisses, "workload", w, "outcome", "miss")
		}
		e.Metric("jobench_report_cache_requests_total", "Report-cache lookups by workload and outcome.")
		for _, w := range wnames {
			e.Sample(m.workloads[w].reportHits, "workload", w, "outcome", "hit")
			e.Sample(m.workloads[w].reportMisses, "workload", w, "outcome", "miss")
		}
	}
	m.mu.Unlock()
	e.Scalar("jobench_pool_hits_total", "Pool lookups that found the world resident.", m.PoolHits.Load())
	e.Scalar("jobench_pool_misses_total", "Pool lookups that opened a world (one per world, not per view).", m.PoolMisses.Load())
	e.Scalar("jobench_pool_evictions_total", "Worlds evicted from the pool.", m.PoolEvictions.Load())
	e.Scalar("jobench_pool_warmups_inflight", "World opens and view constructions currently running.", m.WarmupsInFlight.Load())
	e.Scalar("jobench_report_cache_hits_total", "Experiment reports served from the report cache.", m.ReportHits.Load())
	e.Scalar("jobench_report_cache_misses_total", "Experiment reports that had to be computed.", m.ReportMisses.Load())
	e.Scalar("jobench_replans_total", "Mid-execution re-optimizations triggered by adaptive requests.", m.Replans.Load())
	e.Scalar("jobench_panics_total", "Handler panics recovered into 500 responses.", m.Panics.Load())
	if m.replicaID != "" {
		e.Metric("jobench_replica_info", "Identity of this replica (constant 1).")
		e.Sample(1, "replica", m.replicaID)
	}
	if m.admission != nil {
		waiting, inUse, admitted, shed := m.admission.stats()
		e.Scalar("jobench_report_admission_waiting", "Report computations queued for admission units.", waiting)
		e.Scalar("jobench_report_admission_in_use", "Admission units held by running report computations.", inUse)
		e.Scalar("jobench_report_admission_admitted_total", "Report computations admitted since start.", admitted)
		e.Scalar("jobench_report_shed_total", "Report requests rejected with 429 because the admission queue was full.", shed)
	}
	if m.faultStats != nil {
		fs := m.faultStats()
		e.Metric("jobench_fault_injected_total", "Faults injected by kind (chaos testing only).")
		e.Sample(fs.Delays, "kind", "delay")
		e.Sample(fs.Errors, "kind", "error")
		e.Sample(fs.Hangs, "kind", "hang")
		e.Sample(fs.Resets, "kind", "reset")
		e.Scalar("jobench_fault_crashed", "Whether the injected one-shot crash has fired.", fs.Crashed)
	}
}
