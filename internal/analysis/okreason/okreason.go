// Package okreason enforces the suppression contract: a pvfslint:ok
// directive is an audited, documented exception, so it must name an
// analyzer of the suite AND say why the site is safe:
//
//	//pvfslint:ok <analyzer> <reason...>
//
// A directive with no reason still suppresses (the framework only matches
// the analyzer name), which is exactly why this analyzer makes the missing
// reason a hard diagnostic instead of a convention: an unexplained
// suppression is indistinguishable from an opt-out. A directive naming no
// analyzer of the suite — one left behind when an analyzer was renamed or
// folded into another — suppresses nothing, so it is a diagnostic too.
package okreason

import (
	"fmt"
	"go/token"

	"pvfsib/internal/analysis"
)

// New returns the analyzer for a suite whose analyzers, besides okreason
// itself, are named by names. It flags pvfslint:ok directives that omit
// the analyzer name or the reason, or name an analyzer not in the suite.
func New(names ...string) *analysis.Analyzer {
	known := map[string]bool{"okreason": true}
	for _, n := range names {
		known[n] = true
	}
	return &analysis.Analyzer{
		Name: "okreason",
		Doc:  "every //pvfslint:ok directive must name an analyzer of the suite and give a reason",
		Run:  func(pass *analysis.Pass) error { return run(pass, known) },
	}
}

func run(pass *analysis.Pass, known map[string]bool) error {
	// Report directly, bypassing the suppression filter: a reasonless
	// "//pvfslint:ok okreason" must not silence the very diagnostic that
	// demands the reason. This is the one hard, unsuppressable check.
	report := func(pos token.Pos, format string, args ...any) {
		pass.Report(analysis.Diagnostic{
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
			Analyzer: pass.Analyzer.Name,
		})
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				args, ok := analysis.OKDirective(c.Text)
				switch {
				case !ok:
				case len(args) == 0:
					report(c.Pos(), "pvfslint:ok directive names no analyzer: write //pvfslint:ok <analyzer> <reason>")
				case !known[args[0]]:
					report(c.Pos(), "pvfslint:ok names %s, which is not an analyzer of the suite: the directive suppresses nothing", args[0])
				case len(args) == 1:
					report(c.Pos(), "pvfslint:ok %s gives no reason: a suppression is an audited exception, say why the site is safe", args[0])
				}
			}
		}
	}
	return nil
}
