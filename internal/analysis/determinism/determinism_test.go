package determinism_test

import (
	"testing"

	"graphpi/internal/analysis/analysistest"
	"graphpi/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer, "counts")
}

// TestDeterminismAuxBuildPath covers a lazily built per-root scratch: flat
// vertex-id-keyed rows must pass clean, while a map-backed membership whose
// iteration order would reorder packed rows must be flagged transitively
// from the annotated Row entry point.
func TestDeterminismAuxBuildPath(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer, "auxrows")
}
