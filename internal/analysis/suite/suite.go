// Package suite enumerates the pvfslint analyzers. The cmd/pvfslint driver
// and the repository self-check test share this list.
package suite

import (
	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/nopanic"
	"pvfsib/internal/analysis/okreason"
)

// All returns every analyzer in the suite. okreason comes last: it checks
// that each directive names one of the others.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{nopanic.Analyzer, okreason.New(nopanic.Analyzer.Name)}
}
