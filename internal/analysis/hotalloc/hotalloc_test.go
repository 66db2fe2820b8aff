package hotalloc_test

import (
	"testing"

	"vread/internal/analysis"
	"vread/internal/analysis/analysistest"
	"vread/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), hotalloc.Analyzer, "hotfix", "hothelper")
}

// TestBoundaryUnused runs the stale-suppression driver over cold boundaries:
// the reached boundary is used, the unreached one is reported stale.
func TestBoundaryUnused(t *testing.T) {
	analysistest.RunUnused(t, analysistest.TestData(t),
		[]*analysis.Analyzer{hotalloc.Analyzer}, "hotboundary")
}
