// Package load runs the pvfslint suite over packages named by go list
// patterns. It shells out to "go list -deps -test -export -json" to obtain,
// for every package matching the patterns and for its test variants, its Go
// files, its import map and the export-data files of all dependencies (the
// go command builds them as a side effect of -export), then type-checks and
// analyzes each main-module package and each of its test units.
//
// This is the path behind "pvfslint ./..." and the repository self-check
// test.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pvfsib/internal/analysis"
)

// listPackage is the subset of "go list -json" output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	ForTest    string
	ImportMap  map[string]string
	Module     *struct{ Path string }
}

// Finding is one diagnostic with its rendered position.
type Finding struct {
	Position token.Position
	Message  string
	Analyzer string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Position, f.Message, f.Analyzer)
}

// Packages runs the analyzers over every main-module package matching the
// go list patterns, in dir, and over their test units. It returns all
// findings sorted by position and the per-analyzer wall-clock totals for the
// whole run (the numbers behind pvfslint -time and the lint budget).
//
// One analysis.Repo is shared by every package, and "go list -deps" emits
// dependencies before dependents, so interprocedural analyzers (detcheck,
// lockorder, hotpath) see every in-module callee's summary before the
// caller's package — provided the patterns cover the dependency (as ./...
// does). After the last package, each analyzer's Finish hook runs once with
// the same store; its diagnostics (hotpath's unreached audits) join the
// findings.
//
// Test files are analyzed as the go command compiles them: each test unit
// ("X [X.test]", the package with its _test.go files, and "X_test
// [X.test]", the external test package) is type-checked under its plain
// path against the export data its ImportMap names, with a fresh Repo of
// its own, and only its findings in _test.go files are kept — the rest were
// reported by the package's own pass.
func Packages(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, map[string]time.Duration, error) {
	args := append([]string{"list", "-deps", "-test", "-export", "-json=ImportPath,Dir,Standard,Export,GoFiles,ForTest,ImportMap,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var order []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		order = append(order, p)
	}

	// -deps pulled in the whole closure for export data; a second plain
	// list gives the set the patterns actually name.
	cmd = exec.Command("go", append([]string{"list"}, patterns...)...)
	cmd.Dir = dir
	var targetOut bytes.Buffer
	cmd.Stdout = &targetOut
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	targets := make(map[string]bool)
	for _, line := range bytes.Fields(targetOut.Bytes()) {
		targets[string(line)] = true
	}

	repo := analysis.NewRepo()
	fset := token.NewFileSet()
	gc := func() types.Importer {
		return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		})
	}
	// The packages share one importer, so each dependency is read once;
	// a test unit sees its own variants of them, so it gets its own.
	shared := gc()
	var findings []Finding
	keep := func(diags []analysis.Diagnostic, testOnly bool) {
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if !testOnly || strings.HasSuffix(pos.Filename, "_test.go") {
				findings = append(findings, Finding{Position: pos, Message: d.Message, Analyzer: d.Analyzer})
			}
		}
	}
	for _, p := range order {
		// Deps are in the list only for their export data; analyze the
		// packages the patterns named and their test units. A dependency
		// recompiled for a test ("Y [X.test]") brings no file of its own.
		path, _, _ := strings.Cut(p.ImportPath, " ")
		isUnit := p.ForTest != "" && targets[p.ForTest] && (path == p.ForTest || path == p.ForTest+"_test")
		if p.Standard || p.Module == nil || !(isUnit || p.ForTest == "" && targets[path]) {
			continue
		}
		unitRepo, imp := repo, shared
		if isUnit {
			unitRepo, imp = analysis.NewRepo(), gc()
		}
		diags, err := check(fset, p, path, imp, analyzers, unitRepo)
		if err != nil {
			return nil, nil, err
		}
		keep(diags, isUnit)
		if isUnit {
			for name, d := range unitRepo.Timing {
				repo.Timing[name] += d
			}
		}
	}
	final, err := analysis.RunFinish(analyzers, repo)
	if err != nil {
		return nil, nil, err
	}
	keep(final, false)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings, repo.Timing, nil
}

// check parses p's files, type-checks them as package path with imports
// resolved through p's ImportMap by imp, and runs the analyzers with repo.
func check(fset *token.FileSet, p *listPackage, path string, imp types.Importer, analyzers []*analysis.Analyzer, repo *analysis.Repo) ([]analysis.Diagnostic, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tc := &types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			return imp.Import(path)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	info := analysis.NewInfo()
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return analysis.RunAll(analyzers, fset, files, pkg, info, repo)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
