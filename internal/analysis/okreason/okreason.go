// Package okreason enforces the suppression contract: a pvfslint:ok
// directive is an audited, documented exception, so it must name the
// analyzer it silences AND say why the site is safe:
//
//	//pvfslint:ok <analyzer> <reason...>
//
// A directive with no reason still suppresses (the framework only matches
// the analyzer name), which is exactly why this analyzer makes the missing
// reason a hard diagnostic instead of a convention: an unexplained
// suppression is indistinguishable from an opt-out.
package okreason

import (
	"fmt"
	"go/token"

	"pvfsib/internal/analysis"
)

// Analyzer flags pvfslint:ok directives that omit the analyzer name or the
// reason.
var Analyzer = &analysis.Analyzer{
	Name: "okreason",
	Doc:  "every //pvfslint:ok directive must name an analyzer and give a reason",
	Run:  run,
}

func run(pass *analysis.Pass) error {
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
				case len(args) == 1:
					report(c.Pos(), "pvfslint:ok %s gives no reason: a suppression is an audited exception, say why the site is safe", args[0])
				}
			}
		}
	}
	return nil
}
