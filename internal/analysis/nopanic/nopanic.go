// Package nopanic defines an analyzer that forbids panic() in library
// packages.
//
// The simulator propagates a process panic through Engine.Run, so a panic
// anywhere in the I/O stack tears down the whole simulation with a stack
// trace instead of failing one operation with a diagnosable error. Library
// code must return wrapped errors (%w); code running inside a simulation
// process that has no error path uses sim.Must / sim.Failf, which keeps the
// (single, audited) panic site inside the scheduler package.
//
// panic is allowed in:
//   - package internal/sim itself (the scheduler's assertion machinery),
//   - package main (cmd/ and examples/ entry points),
//   - _test.go files (the loader reads none),
//   - sites carrying a "//pvfslint:ok nopanic <reason>" directive.
package nopanic

import (
	"go/ast"
	"go/types"

	"pvfsib/internal/analysis"
)

// Analyzer flags panic calls in library packages.
var Analyzer = &analysis.Analyzer{
	Name: "nopanic",
	Doc:  "forbid panic() in library packages; return errors or use sim.Must/sim.Failf",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" || analysis.IsPkg(pass.Pkg, "internal/sim") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
				return true
			}
			pass.Reportf(call.Pos(), "panic in library package %s; return a wrapped error (%%w) or use sim.Must/sim.Failf", pass.Pkg.Path())
			return true
		})
	}
	return nil
}
