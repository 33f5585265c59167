// Package suite enumerates the pvfslint analyzers. The cmd/pvfslint driver
// and the repository self-check test share this list.
package suite

import (
	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/detcheck"
	"pvfsib/internal/analysis/errflow"
	"pvfsib/internal/analysis/lifetime"
	"pvfsib/internal/analysis/nopanic"
	"pvfsib/internal/analysis/okreason"
)

// All returns every analyzer in the suite. okreason comes last: it checks
// that each directive names one of the others.
func All() []*analysis.Analyzer {
	all := []*analysis.Analyzer{
		nopanic.Analyzer,
		lifetime.Analyzer,
		errflow.Analyzer,
		detcheck.Analyzer,
	}
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return append(all, okreason.New(names...))
}
