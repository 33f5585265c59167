// Package analysis is a self-contained static-analysis framework for the
// pvfslint suite, modeled on golang.org/x/tools/go/analysis but built only
// on the standard library (the build environment is offline, so the x/tools
// module cannot be a dependency).
//
// An Analyzer inspects one type-checked package at a time through a Pass and
// reports Diagnostics. The driver (cmd/pvfslint, through the load package)
// runs analyzers over packages loaded with "go list"; tests run them over
// small GOPATH-style corpora (see the analysistest package).
//
// Findings can be suppressed site-by-site with a directive comment
//
//	//pvfslint:ok <analyzer> <reason>
//
// placed on the flagged line or the line above it. The reason is mandatory
// (the okreason analyzer enforces it): a suppression is an audited,
// documented exception (for example a panic on a caller bug that an error
// return would spread to every call site), not an opt-out.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// "//pvfslint:ok <name>" suppression directive.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the package in pass and reports findings via
	// pass.Report or pass.Reportf.
	Run func(pass *Pass) error
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a finding. Drivers set it; suppressed findings are
	// filtered before it is called.
	Report func(Diagnostic)

	// covered holds every line one of this analyzer's pvfslint:ok
	// directives covers. Built lazily.
	covered map[lineKey]bool
}

// lineKey names one source line. Directives cover lines of their own file
// only: two files of a package share line numbers, not suppressions.
type lineKey struct {
	file *token.File
	line int
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted finding at pos unless a pvfslint:ok directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Suppressed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Suppressed reports whether a "//pvfslint:ok <analyzer>" directive covers
// the line of pos (the directive may sit on the same line or the line above).
func (p *Pass) Suppressed(pos token.Pos) bool {
	p.scanDirectives()
	tf := p.Fset.File(pos)
	return tf != nil && p.covered[lineKey{tf, tf.Line(pos)}]
}

func (p *Pass) scanDirectives() {
	if p.covered != nil {
		return
	}
	p.covered = make(map[lineKey]bool)
	for _, f := range p.Files {
		tf := p.Fset.File(f.Pos())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if args, ok := OKDirective(c.Text); !ok || len(args) == 0 || args[0] != p.Analyzer.Name {
					continue
				}
				// The directive covers its own line (end-of-line
				// comment) and the next line (comment above).
				line := tf.Line(c.Pos())
				p.covered[lineKey{tf, line}] = true
				p.covered[lineKey{tf, line + 1}] = true
			}
		}
	}
}

// OKDirective parses a "//pvfslint:ok <analyzer> <reason...>" comment and
// returns the fields after the marker; ok is false for any other comment.
func OKDirective(text string) (args []string, ok bool) {
	fields := strings.Fields(strings.TrimPrefix(text, "//"))
	if len(fields) == 0 || fields[0] != "pvfslint:ok" {
		return nil, false
	}
	return fields[1:], true
}

// IsPkg reports whether the types.Package is the named repo package,
// matching by import-path suffix, so that both the real module package
// ("pvfsib/internal/sim") and a test corpus's stub of it are recognized.
func IsPkg(pkg *types.Package, suffix string) bool {
	return pkg != nil && (pkg.Path() == suffix || strings.HasSuffix(pkg.Path(), "/"+suffix))
}
