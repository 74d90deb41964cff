package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func mustSpec(t *testing.T) *specFile {
	t.Helper()
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json must keep to the contract the driver checks it against.
func TestBenchmarkJSONContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("key %q is missing", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("key %q is not part of the contract", key)
	}

	spec := mustSpec(t)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	// 4 + 22 x workloads runs, with set-up and two builds, within 3420 s.
	// 16 s a run (10 s timed, up to 5 s set-up, start-up) and 120 s of
	// builds is what this file's sizes are budgeted for.
	if total := (4+22*len(spec.Workloads))*(spec.RunSeconds+6) + 120; total > 3420 {
		t.Errorf("the driver's runs would take about %d s, over the 3420 s cap", total)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var setup specMetric
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound > setup.Bound {
			t.Errorf("%s: bound %g exceeds setup_s's %g, which must be the largest", m.Name, m.Bound, setup.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if len(spec.Command) < 2 || spec.Command[0] != "bash" || spec.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", spec.Command)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// Names live in BENCHMARK.json and are looked up from code; neither side
// may know a name the other does not.
func TestNamesAgreeBetweenFileAndCode(t *testing.T) {
	spec := mustSpec(t)
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in code", i, w.Name, workloadDefs[i].name)
		}
	}
	declared := map[string]bool{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
		if _, ok := predictions[m.Name]; !ok {
			t.Errorf("per-layer metric %q has no prediction in spec.go", m.Name)
		}
	}
	for name := range predictions {
		if !declared[name] {
			t.Errorf("spec.go predicts %q, which BENCHMARK.json does not declare", name)
		}
	}
	for _, name := range exactCounts {
		if !declared[name] {
			t.Errorf("exact count %q is not a declared per-layer metric", name)
		}
	}
}

func TestExpectedFileIsComplete(t *testing.T) {
	exp, err := loadExpected(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range workloadDefs {
		if s, ok := exp.Workloads[d.name]; !ok || s.Ops == 0 {
			t.Errorf("expected/seed42.json has no sums for %s", d.name)
		}
	}
	for _, name := range []string{"table1", "fig3", "fig5"} {
		if len(exp.Reports[name]) != 64 {
			t.Errorf("expected/seed42.json has no SHA-256 for report %s", name)
		}
	}
}
