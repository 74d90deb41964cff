package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestReoptExperiment(t *testing.T) {
	skipSlowInShort(t)
	l := sharedLab(t)
	res, err := l.Reopt(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: mid-execution re-optimization must not cost more
	// than static planning in the aggregate, and at least one query family
	// must actually improve.
	if res.GeoAdaptive > res.GeoStatic+1e-9 {
		t.Errorf("geomean re-optimized %.3f worse than static %.3f", res.GeoAdaptive, res.GeoStatic)
	}
	if res.Improved < 1 {
		t.Errorf("no family improved by re-optimization")
	}
	// Feedback-warm planning starts from observed truth and must beat cold
	// static planning in the aggregate — that is the feedback cache's whole
	// claim. (It may trail the adaptive run itself: adaptive both picks its
	// plan with more observations and reuses materialized intermediates.)
	if res.GeoWarm > res.GeoStatic+1e-9 {
		t.Errorf("geomean warm %.3f worse than static %.3f", res.GeoWarm, res.GeoStatic)
	}
	if len(res.Families) < 30 {
		t.Errorf("%d families, want the full workload's 33", len(res.Families))
	}
	if res.Probes == 0 {
		t.Error("no probes recorded")
	}
	out := res.Render()
	if !strings.Contains(out, "Adaptive re-optimization") || !strings.Contains(out, "family") {
		t.Fatalf("render broken:\n%s", out)
	}
	t.Logf("reopt: static %.3f re-opt %.3f warm %.3f, replans %d, probes %d, improved %d/%d",
		res.GeoStatic, res.GeoAdaptive, res.GeoWarm, res.Replans, res.Probes, res.Improved, len(res.Families))
}
