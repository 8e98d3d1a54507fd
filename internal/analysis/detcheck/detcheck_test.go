package detcheck_test

import (
	"testing"

	"karma/internal/analysis/analysistest"
	"karma/internal/analysis/detcheck"
)

func TestDetcheck(t *testing.T) {
	analysistest.Run(t, ".", detcheck.Analyzer, "a")
}

func TestAppliesTo(t *testing.T) {
	a := detcheck.Analyzer
	for _, pkg := range []string{"karma/internal/experiments", "karma/internal/dist", "karma/internal/karma", "karma/internal/flight"} {
		if !a.AppliesTo(pkg) {
			t.Errorf("detcheck should apply to %s", pkg)
		}
	}
	if a.AppliesTo("karma/internal/aco") {
		t.Error("detcheck should not apply to karma/internal/aco (it threads seeded *rand.Rand)")
	}
}
