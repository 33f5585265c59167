package lifetime_test

import (
	"testing"

	"pvfsib/internal/analysis/analysistest"
	"pvfsib/internal/analysis/lifetime"
)

func TestRegistrations(t *testing.T) {
	analysistest.Run(t, "testdata", lifetime.Analyzer, "reg")
}

func TestSpans(t *testing.T) {
	analysistest.Run(t, "testdata", lifetime.Analyzer, "span")
}
