package main

import "testing"

// TestSmoke drives every workload end to end on tiny worlds: set-up, the
// timed phase, the correctness gate and — in the traced run, which
// alternates a pass through the program's surface with an unrolled one —
// the check that every op unrolled into layer calls gives the facade's
// answer. It proves the paths, not the numbers.
func TestSmoke(t *testing.T) {
	spec := mustSpec(t)
	modes := []bool{true}
	if !testing.Short() {
		modes = []bool{false, true}
	}
	nonZero := map[string]bool{}
	for _, def := range workloadDefs {
		for _, traced := range modes {
			cfg := runConfig{seed: 7, seconds: 0.05, trace: traced, full: true, smoke: true, outDir: t.TempDir()}
			res, err := runWorkload(def, cfg, spec, nil)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", def.name, traced, res.Attempted, res.Failed, res.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if m.Value != 0 {
					nonZero[name] = true
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", def.name, name, m.Value)
				}
			}
			if traced && res.Metrics["trace.unrolled_ops"].Value == 0 {
				t.Errorf("%s: the traced run unrolled no op", def.name)
			}
		}
	}
	// Every declared per-layer metric must be produced by some workload;
	// these read 0 whenever nothing goes wrong.
	zeroWhenHealthy := map[string]bool{"fail_share": true, "late_share": true, "limit_miss_share": true}
	for _, m := range spec.PerLayer {
		if !nonZero[m.Name] && !zeroWhenHealthy[m.Name] {
			t.Errorf("per-layer metric %s was 0 on every workload: nothing computes it", m.Name)
		}
	}
}
