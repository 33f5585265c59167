package hotpath_test

import (
	"testing"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/analysistest"
	"pvfsib/internal/analysis/hotpath"
	"pvfsib/internal/analysis/okreason"
)

// TestEffects checks effect detection with nothing audited: allocation
// kinds, blocking primitives, devirtualization, SCC recursion, intrinsics,
// calls that never return, the class filter, and the directive parser.
func TestEffects(t *testing.T) {
	analysistest.Run(t, "testdata", hotpath.Analyzer, "a")
}

// TestBudgetRatchet checks the site audits that are a root's budget: an
// audited effect is silent from every root, an unaudited one fails from each,
// a doc-comment audit covers a body, and a directive that gives no reason,
// covers no effect, or audits what no root reaches is an error.
func TestBudgetRatchet(t *testing.T) {
	analysistest.RunSuite(t, "testdata", []*analysis.Analyzer{hotpath.Analyzer, okreason.New(hotpath.Analyzer.Name)}, "b")
}

// TestEscapes checks the checks inherited from engescape, including the
// suppression directive under the hotpath name.
func TestEscapes(t *testing.T) {
	analysistest.Run(t, "testdata", hotpath.Analyzer, "esc")
}
