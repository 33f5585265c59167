// Package analysistest runs an analyzer over a small GOPATH-style source
// corpus and checks its diagnostics against expectations written in the
// corpus itself, in the style of golang.org/x/tools/go/analysis/analysistest:
//
//	func bad() {
//		panic("boom") // want `panic in library package`
//	}
//
// A corpus lives under an analyzer's testdata/src/<importpath>/ directory.
// Each package is type-checked from source; imports resolve only within the
// corpus (a testdata stub stands in for pvfsib/internal/sim where an
// analyzer needs one), so corpora must not import the standard library.
//
// The expectation comment is `// want` followed by one or more backquoted
// Go regular expressions, all of which must match diagnostics reported on
// that line. Diagnostics on lines without a matching expectation, and
// expectations without a matching diagnostic, fail the test. Where the line
// ends in a comment of its own — a diagnostic about a directive lands on the
// directive — the expectation goes before it as `/* want ... */`.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pvfsib/internal/analysis"
)

// Run analyzes the package at import path pkgPath under dir/src and checks
// // want expectations in its files. The packages it imports are
// type-checked from the corpus, not analyzed.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	ld := &loader{
		root: filepath.Join(dir, "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*loadedPkg),
	}
	lp, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}
	diags, err := analysis.RunAll([]*analysis.Analyzer{a}, ld.fset, lp.files, lp.pkg, lp.info, nil)
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, ld.fset, lp.files)

	got := make(map[key][]string)
	for _, d := range diags {
		pos := ld.fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		got[k] = append(got[k], d.Message)
	}

	matched := make(map[key][]bool)
	for k, ws := range wants {
		matched[k] = make([]bool, len(ws))
	}
	for k, msgs := range got {
		ws := wants[k]
		for _, msg := range msgs {
			ok := false
			for i, w := range ws {
				if w.MatchString(msg) {
					matched[k][i] = true
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
			}
		}
	}
	for k, ws := range wants {
		for i, w := range ws {
			if !matched[k][i] {
				t.Errorf("%s:%d: no diagnostic matching %q (got %v)", k.file, k.line, w.String(), got[k])
			}
		}
	}
}

// key identifies a source line that diagnostics and expectations attach to.
type key struct {
	file string
	line int
}

// collectWants extracts `// want` expectations keyed by (file, line).
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[key][]*regexp.Regexp {
	t.Helper()
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitBackquoted(text[len("want "):]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

// splitBackquoted returns the backquoted segments of s.
func splitBackquoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '`')
		if i < 0 {
			return out
		}
		s = s[i+1:]
		j := strings.IndexByte(s, '`')
		if j < 0 {
			return out
		}
		out = append(out, s[:j])
		s = s[j+1:]
	}
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks corpus packages from source, resolving imports only
// within the corpus root.
type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*loadedPkg
}

func (ld *loader) load(path string) (*loadedPkg, error) {
	if lp, ok := ld.pkgs[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	tc := &types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		lp, err := ld.load(p)
		if err != nil {
			return nil, fmt.Errorf("import %q: %w", p, err)
		}
		return lp.pkg, nil
	})}
	pkg, err := tc.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{pkg: pkg, files: files, info: info}
	ld.pkgs[path] = lp
	return lp, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
