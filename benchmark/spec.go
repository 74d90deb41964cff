package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// specFile is BENCHMARK.json: the one place metric names, units, directions,
// bounds and workload rationales are written down. The code looks them up
// here, so a name cannot drift between the file and the program.
type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or, for a
// program started inside benchmark/ (go run, go test), from its parent, and
// returns that directory — the root of the checkout — with it.
func loadSpec() (*specFile, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s specFile
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// predictions is what each per-layer metric should move, written before
// anything was measured: the end-to-end metric and workload a change to that
// layer is expected to show up in, and where it should not. A later change
// that claims a gain cites the row it relies on.
var predictions = map[string][2]string{
	"query.parse_us":                   {"setup_s everywhere", "any ops_per_s"},
	"query.graph_us":                   {"setup_s everywhere", "any ops_per_s"},
	"cardest.calls":                    {"plan.job p50_ms/ops_per_s; exec.job ops_per_s", "exec.tpch"},
	"cardest.busy_ms":                  {"plan.job p50_ms/ops_per_s; exec.job ops_per_s", "exec.tpch"},
	"costmodel.calls":                  {"plan.job ops_per_s", "exec.tpch"},
	"costmodel.busy_ms":                {"plan.job ops_per_s", "exec.tpch"},
	"enum.self_ms":                     {"plan.job tail_ms (29a-class queries); serve.mixed tail_ms", "exec.tpch, serve.cheap"},
	"engine.run_ms":                    {"exec.tpch ops_per_s (>= 90% share); exec.job (about half)", "plan.job, truth.cold"},
	"engine.work_units":                {"exec.tpch, exec.job ops_per_s", "plan.job, truth.cold"},
	"engine.rows":                      {"nothing: it is the answer and must not move", "everything"},
	"engine.ns_per_work_unit":          {"exec.tpch ops_per_s", "plan.job, truth.cold"},
	"truecard.compute_ms":              {"truth.cold ops_per_s/tail_ms", "all others"},
	"truecard.subgraphs":               {"nothing: it is the answer and must not move", "everything"},
	"truecard.subgraphs_per_s":         {"truth.cold ops_per_s/tail_ms", "all others"},
	"snapshot.db.save_ms":              {"truth.cold setup_s (every cold Open saves)", "all others"},
	"snapshot.stats.save_ms":           {"truth.cold setup_s", "all others"},
	"snapshot.indexes.save_ms":         {"truth.cold setup_s", "all others"},
	"snapshot.truth.save_ms":           {"truth.cold ops_per_s", "all others"},
	"snapshot.db.load_ms":              {"open_warm_s", "all others"},
	"snapshot.stats.load_ms":           {"open_warm_s", "all others"},
	"snapshot.indexes.load_ms":         {"open_warm_s", "all others"},
	"snapshot.truth.load_ms":           {"open_warm_s", "all others"},
	"snapshot.db.bytes":                {"snapshot.db.save_ms/load_ms", "timed phases"},
	"snapshot.stats.bytes":             {"snapshot.stats.save_ms/load_ms", "timed phases"},
	"snapshot.indexes.bytes":           {"snapshot.indexes.save_ms/load_ms", "timed phases"},
	"snapshot.truth.bytes":             {"snapshot.truth.save_ms/load_ms", "timed phases"},
	"workload.generate_ms":             {"setup_s on exec.*", "timed phases"},
	"stats.analyze_ms":                 {"setup_s on exec.*", "timed phases"},
	"index.build_ms":                   {"setup_s on exec.*", "timed phases"},
	"service.handler_self_us.estimate": {"serve.cheap p50_ms/ops_per_s", "serve.mixed (< 10%)"},
	"service.handler_self_us.optimize": {"serve.mixed p50_ms, slightly", "serve.cheap"},
	"service.handler_self_us.execute":  {"serve.mixed p50_ms, slightly", "serve.cheap"},
	"router.forward_self_us":           {"serve.cheap ops_per_s", "serve.mixed"},
	"router.stub_us":                   {"serve.cheap ops_per_s", "serve.mixed"},
	"net.hop_us":                       {"serve.cheap p50_ms", "serve.mixed"},
	"share.optimizer":                  {"reads >= 0.9 on plan.job, about half on exec.job", "exec.tpch (< 0.01)"},
	"share.engine":                     {"reads >= 0.9 on exec.tpch", "plan.job (0)"},
	"share.truecard":                   {"reads most of truth.cold", "all others (0)"},
	"share.snapshot":                   {"the rest of truth.cold", "all others (0)"},
	"share.http":                       {"reads >= 0.5 on serve.cheap", "serve.mixed (<= 0.1)"},
	"share.facade":                     {"reads >= 0.9 on serve.mixed", "serve.cheap"},
	"trace_overhead_share":             {"nothing: it is the instrument's own cost", "end-to-end runs, which are untraced"},
	"open_warm_s":                      {"truth.cold only: Open + Warmup from a populated snapshot dir", "all others (0)"},
	"max_rate_ok":                      {"serve.mixed only: highest rate step within the latency limit", "all others (0)"},
	"late_share":                       {"serve.mixed only: worst step's share of requests sent late", "all others (0)"},
	"limit_miss_share":                 {"serve.mixed only: worst step's share of requests over the limit", "all others (0)"},
	"rate_step1.tail_ms":               {"serve.mixed latency at the lowest rate", "all others (0)"},
	"rate_step2.tail_ms":               {"serve.mixed latency at the middle rate (the end-to-end tail_ms)", "all others (0)"},
	"rate_step3.tail_ms":               {"serve.mixed latency at the highest rate", "all others (0)"},
	"peak_rss_mb":                      {"nothing gated: VmHWM of the traced run's process, garbage and the benchmark's own world included", "-"},
	"fail_share":                       {"must stay 0: ops that errored or answered wrongly / ops attempted", "-"},
	"tail_percentile":                  {"which percentile tail_ms is on this workload", "-"},
	"trace.unrolled_ops":               {"ops the traced passes unrolled", "-"},
}

// list prints names, units, directions and bounds straight from
// BENCHMARK.json, with the prediction recorded for each per-layer metric.
func (s *specFile) list(w io.Writer) {
	fmt.Fprintf(w, "command: %v   run_seconds: %d\n\nworkloads\n", s.Command, s.RunSeconds)
	for _, wl := range s.Workloads {
		fmt.Fprintf(w, "  %-12s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintf(w, "\nend-to-end metrics (every workload, -trace 0)\n")
	for _, m := range s.EndToEnd {
		fmt.Fprintf(w, "  %-14s %-6s better=%-6s bound=%g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintf(w, "\nper-layer metrics (every workload, -trace 1; 0 where the layer is not touched)\n")
	for _, m := range s.PerLayer {
		p := predictions[m.Name]
		fmt.Fprintf(w, "  %-34s %-6s better=%-6s moves: %s | not: %s\n", m.Name, m.Unit, m.Better, p[0], p[1])
	}
}
