package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"time"
)

// NewInfo returns a types.Info with every map drivers and analyzers need.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// RunAll runs every analyzer over one type-checked package and returns the
// combined diagnostics. Each analyzer's wall time is added to timing under
// its name when timing is not nil (the numbers behind pvfslint -time and
// the lint budget).
func RunAll(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, timing map[string]time.Duration) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { out = append(out, d) },
		}
		start := time.Now()
		err := a.Run(pass)
		if timing != nil {
			timing[a.Name] += time.Since(start)
		}
		if err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}
	return out, nil
}
