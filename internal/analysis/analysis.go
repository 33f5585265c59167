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
// by convention: a suppression is an audited, documented exception (for
// example a wall-clock read that only feeds a host diagnostic), not an
// opt-out.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"time"
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

	// Repo is the driver-run-wide store shared by every pass of one driver
	// invocation. Interprocedural analyzers (detcheck) stash cross-package
	// state here — the call-graph program and function summaries — relying
	// on the loader's dependency-first package order. Drivers always set
	// it.
	Repo *Repo

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

// Repo carries state across the packages of one driver run: a keyed store
// for interprocedural analyzers plus per-analyzer wall-clock totals (the
// numbers behind pvfslint -time and the lint budget).
type Repo struct {
	state  map[string]any
	Timing map[string]time.Duration
}

// NewRepo returns an empty run-wide store.
func NewRepo() *Repo {
	return &Repo{state: make(map[string]any), Timing: make(map[string]time.Duration)}
}

// Get returns the value stored under key, or nil.
func (r *Repo) Get(key string) any { return r.state[key] }

// Set stores v under key.
func (r *Repo) Set(key string, v any) { r.state[key] = v }

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

// PathHasSuffix reports whether a package import path is pkg or ends with
// "/pkg". Analyzers match repo packages this way so that both the real
// module packages ("pvfsib/internal/ib") and test-corpus stubs
// ("pvfsib/internal/ib" under an analyzer's testdata/src) are recognized.
func PathHasSuffix(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// IsPkg reports whether the types.Package is the named repo package,
// matching by import-path suffix (see PathHasSuffix).
func IsPkg(pkg *types.Package, suffix string) bool {
	return pkg != nil && PathHasSuffix(pkg.Path(), suffix)
}

// NamedFrom reports whether t (after unwrapping pointers and aliases) is the
// named type typeName declared in the package whose path ends with pkgSuffix.
func NamedFrom(t types.Type, pkgSuffix, typeName string) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Alias:
			t = types.Unalias(u)
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != typeName {
		return false
	}
	return IsPkg(obj.Pkg(), pkgSuffix)
}

// ReceiverMethod reports whether the call is a method call named method on a
// value whose type is typeName from the package ending in pkgSuffix, and
// returns the receiver expression.
func ReceiverMethod(info *types.Info, call *ast.CallExpr, pkgSuffix, typeName, method string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil, false
	}
	if !NamedFrom(tv.Type, pkgSuffix, typeName) {
		return nil, false
	}
	return sel.X, true
}

// ExprString renders a (small) expression for use in messages and as a map
// key when comparing receiver expressions lexically.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(fset, e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(fset, e.X)
	case *ast.StarExpr:
		return "*" + ExprString(fset, e.X)
	case *ast.IndexExpr:
		return ExprString(fset, e.X) + "[" + ExprString(fset, e.Index) + "]"
	case *ast.CallExpr:
		return ExprString(fset, e.Fun) + "(...)"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
