package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestDampingAblation(t *testing.T) {
	l := sharedLab(t)
	res, err := l.DampingAblation(context.Background(), []float64{1.0, 0.82, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Exponent 1.0 = plain independence: deepest underestimation. Smaller
	// exponents lift the medians monotonically.
	get := func(exp float64) DampingAblationRow {
		for _, r := range res.Rows {
			if r.Exponent == exp {
				return r
			}
		}
		t.Fatalf("missing exponent %g", exp)
		return DampingAblationRow{}
	}
	plain, def, strong := get(1.0), get(0.82), get(0.5)
	if def.MedianAt[4] < plain.MedianAt[4] {
		t.Errorf("damping 0.82 median at 4 joins (%.3g) below independence (%.3g)",
			def.MedianAt[4], plain.MedianAt[4])
	}
	if strong.MedianAt[4] < def.MedianAt[4] {
		t.Errorf("stronger damping (%.3g) did not lift estimates above 0.82 (%.3g)",
			strong.MedianAt[4], def.MedianAt[4])
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Fatal("render broken")
	}
	// The registry sweeps the default exponents, not this test's three.
	pinRegistryRun(t, l, "ablation-damping")
}

func TestRehashAblation(t *testing.T) {
	l := sharedLab(t)
	res, err := l.RehashAblation(context.Background(), "17e", []float64{1, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// At factor 1 the fixed table is fine; at factor 1000 the collision
	// chains must dominate, and rehashing must bound the damage.
	first, last := res.Rows[0], res.Rows[2]
	penalty := func(r RehashAblationRow) float64 {
		return float64(r.WorkFixed) / float64(r.WorkRehash)
	}
	if penalty(first) > 1.6 {
		t.Errorf("penalty %.2fx at factor 1; expected near parity", penalty(first))
	}
	if penalty(last) < 2 {
		t.Errorf("penalty only %.2fx at factor 1000; chains should dominate", penalty(last))
	}
	if last.WorkFixed <= first.WorkFixed {
		t.Error("fixed-table work did not grow with underestimation")
	}
	if !strings.Contains(res.Render(), "rehash") {
		t.Fatal("render broken")
	}
	// The registry sweeps the default factors, not this test's three.
	pinRegistryRun(t, l, "ablation-rehash")
}

func TestHedgingSweep(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Hedging(context.Background(), 1.1, 1.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want baseline + 3 factors", len(res.Rows))
	}
	disasters := func(r HedgingRow) float64 { return r.Buckets[4] + r.Buckets[5] }
	base := res.Rows[0]
	best := disasters(res.Rows[1])
	for _, r := range res.Rows[1:] {
		sum := 0.0
		for _, f := range r.Buckets {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: buckets sum to %f", r.Label, sum)
		}
		if d := disasters(r); d < best {
			best = d
		}
	}
	// The harness evaluates the paper's §8 proposal; whether hedging pays
	// off depends on data scale and statistics quality (and at this test
	// scale it often does not — a finding in itself, recorded in
	// EXPERIMENTS.md). The test verifies the harness, not the hypothesis.
	t.Logf("disasters: baseline %.3f, best hedged %.3f", disasters(base), best)
	if !strings.Contains(res.Render(), "risk-hedging") {
		t.Fatal("render broken")
	}
	pinReport(t, "hedging", res.Render())
}
