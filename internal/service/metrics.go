package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jobench/internal/fault"
)

// Metrics is the service's ops counters, rendered at /metrics in the
// Prometheus text exposition format. It is dependency-free on purpose: the
// container bakes in no Prometheus client, and the handful of counters the
// service needs — request counts and latencies per route, pool
// hits/misses/evictions, in-flight warmups, report-cache hits — fit in a
// mutex-guarded map plus a few atomics.
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

// Render produces the Prometheus text format, keys sorted for a stable
// (diffable, testable) exposition.
func (m *Metrics) Render() string {
	m.mu.Lock()
	keys := make([]routeCode, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	type row struct {
		k  routeCode
		st routeStats
	}
	rows := make([]row, len(keys))
	for i, k := range keys {
		rows[i] = row{k, *m.requests[k]}
	}
	wnames := make([]string, 0, len(m.workloads))
	for w := range m.workloads {
		wnames = append(wnames, w)
	}
	sort.Strings(wnames)
	type wrow struct {
		name string
		st   workloadStats
	}
	wrows := make([]wrow, len(wnames))
	for i, w := range wnames {
		wrows[i] = wrow{w, *m.workloads[w]}
	}
	m.mu.Unlock()

	var b strings.Builder
	b.WriteString("# HELP jobench_requests_total Completed HTTP requests by route and status code.\n")
	b.WriteString("# TYPE jobench_requests_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "jobench_requests_total{route=%q,code=\"%d\"} %d\n", r.k.route, r.k.code, r.st.count)
	}
	b.WriteString("# HELP jobench_request_seconds_total Cumulative request latency by route and status code.\n")
	b.WriteString("# TYPE jobench_request_seconds_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "jobench_request_seconds_total{route=%q,code=\"%d\"} %g\n", r.k.route, r.k.code, r.st.seconds)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\njobench_%s %d\n",
			"jobench_"+name, help, "jobench_"+name, kindOf(name), name, v)
	}
	if len(wrows) > 0 {
		b.WriteString("# HELP jobench_pool_requests_total Pool lookups by workload and outcome.\n")
		b.WriteString("# TYPE jobench_pool_requests_total counter\n")
		for _, r := range wrows {
			fmt.Fprintf(&b, "jobench_pool_requests_total{workload=%q,outcome=\"hit\"} %d\n", r.name, r.st.poolHits)
			fmt.Fprintf(&b, "jobench_pool_requests_total{workload=%q,outcome=\"miss\"} %d\n", r.name, r.st.poolMisses)
		}
		b.WriteString("# HELP jobench_report_cache_requests_total Report-cache lookups by workload and outcome.\n")
		b.WriteString("# TYPE jobench_report_cache_requests_total counter\n")
		for _, r := range wrows {
			fmt.Fprintf(&b, "jobench_report_cache_requests_total{workload=%q,outcome=\"hit\"} %d\n", r.name, r.st.reportHits)
			fmt.Fprintf(&b, "jobench_report_cache_requests_total{workload=%q,outcome=\"miss\"} %d\n", r.name, r.st.reportMisses)
		}
	}
	gauge("pool_hits_total", "Pool lookups that found the world resident.", m.PoolHits.Load())
	gauge("pool_misses_total", "Pool lookups that opened a world (one per world, not per view).", m.PoolMisses.Load())
	gauge("pool_evictions_total", "Worlds evicted from the pool.", m.PoolEvictions.Load())
	gauge("pool_warmups_inflight", "World opens and view constructions currently running.", m.WarmupsInFlight.Load())
	gauge("report_cache_hits_total", "Experiment reports served from the report cache.", m.ReportHits.Load())
	gauge("report_cache_misses_total", "Experiment reports that had to be computed.", m.ReportMisses.Load())
	gauge("replans_total", "Mid-execution re-optimizations triggered by adaptive requests.", m.Replans.Load())
	gauge("panics_total", "Handler panics recovered into 500 responses.", m.Panics.Load())
	if m.replicaID != "" {
		fmt.Fprintf(&b, "# HELP jobench_replica_info Identity of this replica (constant 1).\n# TYPE jobench_replica_info gauge\njobench_replica_info{replica=%q} 1\n", m.replicaID)
	}
	if m.admission != nil {
		waiting, inUse, admitted, shed := m.admission.stats()
		gauge("report_admission_waiting", "Report computations queued for admission units.", int64(waiting))
		gauge("report_admission_in_use", "Admission units held by running report computations.", inUse)
		gauge("report_admission_admitted_total", "Report computations admitted since start.", admitted)
		gauge("report_shed_total", "Report requests rejected with 429 because the admission queue was full.", shed)
	}
	if m.faultStats != nil {
		fs := m.faultStats()
		b.WriteString("# HELP jobench_fault_injected_total Faults injected by kind (chaos testing only).\n")
		b.WriteString("# TYPE jobench_fault_injected_total counter\n")
		fmt.Fprintf(&b, "jobench_fault_injected_total{kind=\"delay\"} %d\n", fs.Delays)
		fmt.Fprintf(&b, "jobench_fault_injected_total{kind=\"error\"} %d\n", fs.Errors)
		fmt.Fprintf(&b, "jobench_fault_injected_total{kind=\"hang\"} %d\n", fs.Hangs)
		fmt.Fprintf(&b, "jobench_fault_injected_total{kind=\"reset\"} %d\n", fs.Resets)
		crashed := int64(0)
		if fs.Crashed {
			crashed = 1
		}
		gauge("fault_crashed", "Whether the injected one-shot crash has fired.", crashed)
	}
	return b.String()
}

func kindOf(name string) string {
	if strings.HasSuffix(name, "_total") {
		return "counter"
	}
	return "gauge"
}
