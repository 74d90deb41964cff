package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func repeat(base float64, deltas ...float64) []float64 {
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		out[i] = base + d
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := []float64{-1, 1, -0.5, 0.5, 0, 0.2, -0.2, 0.8, -0.8, 0.1} // IQR about 1% of 100

	cases := []struct {
		name           string
		parent, change []float64
		m              specMetric
		want           verdict
	}{
		{"same: inside the noise", repeat(100, tight...), repeat(100.3, tight...), lower, same},
		{"worse: median up by more than the bound", repeat(100, tight...), repeat(112, tight...), lower, worse},
		{"worse is about direction: throughput down", repeat(100, tight...), repeat(88, tight...), higher, worse},
		{"throughput up is not worse", repeat(100, tight...), repeat(101, tight...), higher, same},
		{"better: wins every pair by more than the parent's spread", repeat(100, tight...), repeat(95, tight...), lower, better},
		{"better needs ten pairs", repeat(100, tight[:9]...), repeat(95, tight[:9]...), lower, same},
		{"better needs nine wins in ten", repeat(100, tight...),
			[]float64{94, 96, 94.5, 95.5, 95, 95.2, 101, 101.5, 94.2, 95.1}, lower, same},
		{"a gap inside the parent's spread is not better", repeat(100, tight...), repeat(99.5, tight...), lower, same},
		{"unresolved: the parent's own spread exceeds the bound", repeat(100, -20, 20, -15, 15, 0, 10, -10, 18, -18, 5),
			repeat(100, -20, 20, -15, 15, 0, 10, -10, 18, -18, 5), lower, unresolved},
		{"unresolved beats worse: too noisy to call", repeat(100, -20, 20, -15, 15, 0, 10, -10, 18, -18, 5),
			repeat(130, -20, 20, -15, 15, 0, 10, -10, 18, -18, 5), lower, unresolved},
		{"nothing to compare", nil, nil, lower, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.m); got.verdict != c.want {
			t.Errorf("%s: %s, want %s (%+v)", c.name, got.verdict, c.want, got)
		}
	}
}

func TestCompareFilesReport(t *testing.T) {
	spec := &specFile{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	write := func(name string, p50 []float64, calls float64) string {
		var f resultFile
		for _, v := range p50 {
			f.Runs = append(f.Runs, runResult{Workload: "w", Metrics: map[string]metricValue{"p50_ms": {v, "ms"}}})
		}
		f.Runs = append(f.Runs, runResult{Workload: "w", Trace: true, Metrics: map[string]metricValue{"cardest.calls": {calls, "count"}}})
		data, _ := json.Marshal(f)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{10, 10.1, 9.9}, 500)
	b := write("b.json", []float64{10.05, 10, 9.95}, 500)
	var out bytes.Buffer
	if err := compareFiles(&out, spec, []string{a, b}); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	for _, want := range []string{"p50_ms", "change/parent 1.0000 of 10 ms", "pairs 3", "same", "cardest.calls", "identical"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	c := write("c.json", []float64{12, 12.1, 11.9}, 501)
	out.Reset()
	if err := compareFiles(&out, spec, []string{a, c}); err == nil {
		t.Errorf("a 20%% slowdown and a moved count passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("report lacks worse/DIFFERS:\n%s", out.String())
	}
	if err := compareFiles(&out, spec, []string{a}); err == nil {
		t.Error("an odd number of files was accepted")
	}
}
