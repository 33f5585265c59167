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
// combined diagnostics. Drivers that walk a whole module in dependency order
// (the loader) pass the same Repo for every package, giving interprocedural
// analyzers their cross-package summaries; nil makes a fresh store, so the
// analyzers see only this package. Per-analyzer wall time is accumulated
// into repo.Timing.
func RunAll(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, repo *Repo) ([]Diagnostic, error) {
	if repo == nil {
		repo = NewRepo()
	}
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Repo:      repo,
			Report:    func(d Diagnostic) { out = append(out, d) },
		}
		start := time.Now()
		err := a.Run(pass)
		repo.Timing[a.Name] += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}
	return out, nil
}
