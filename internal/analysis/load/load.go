// Package load runs the pvfslint suite over packages named by go list
// patterns. It shells out to "go list -deps -export -json" to obtain, for
// every package matching the patterns, its Go files and the export-data
// files of all dependencies (the go command builds them as a side effect of
// -export), then type-checks and analyzes each main-module package. No
// analyzer checks _test.go files, so none are loaded.
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
// go list patterns, in dir. It returns all findings sorted by position and
// the per-analyzer wall-clock totals for the whole run (the numbers behind
// pvfslint -time and the lint budget).
func Packages(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, map[string]time.Duration, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Standard,Export,GoFiles,Module"}, patterns...)
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

	timing := make(map[string]time.Duration)
	fset := token.NewFileSet()
	// The packages share one importer, so each dependency is read once.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var findings []Finding
	for _, p := range order {
		// Deps are in the list only for their export data; analyze the
		// packages the patterns named.
		if p.Standard || p.Module == nil || !targets[p.ImportPath] {
			continue
		}
		diags, err := check(fset, p, imp, analyzers, timing)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range diags {
			findings = append(findings, Finding{Position: fset.Position(d.Pos), Message: d.Message, Analyzer: d.Analyzer})
		}
	}
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
	return findings, timing, nil
}

// check parses p's files, type-checks them with imports resolved by imp,
// and runs the analyzers, adding their wall time to timing.
func check(fset *token.FileSet, p *listPackage, imp types.Importer, analyzers []*analysis.Analyzer, timing map[string]time.Duration) ([]analysis.Diagnostic, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tc := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	info := analysis.NewInfo()
	pkg, err := tc.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return analysis.RunAll(analyzers, fset, files, pkg, info, timing)
}
