package callgraph

import (
	"strings"

	"pvfsib/internal/analysis"
)

// Repo keys for the run-wide shared program. Before this helper every
// interprocedural analyzer built its own Program under its own key; detcheck,
// lockorder, and hotpath now share one graph, so each package's AST is walked
// for call edges once per driver run instead of once per analyzer.
const (
	progKey = "callgraph.prog"
	pkgsKey = "callgraph.pkgs"
)

// Of returns the run-wide shared Program and the pass's package slice of it,
// adding the package (its non-test files) on first request. Repeated calls
// for the same package by later analyzers of the same pass return the
// cached PackageGraph.
//
// The driver's package order is the caller's contract exactly as it is for
// AddPackage: dependencies first (the loader guarantees it; a test unit gets
// a fresh Repo, so its program is the one package).
func Of(pass *analysis.Pass) (*Program, *PackageGraph) {
	repo := pass.Repo
	if repo == nil {
		repo = analysis.NewRepo()
	}
	prog, _ := repo.Get(progKey).(*Program)
	if prog == nil {
		prog = NewProgram()
		repo.Set(progKey, prog)
	}
	graphs, _ := repo.Get(pkgsKey).(map[string]*PackageGraph)
	if graphs == nil {
		graphs = make(map[string]*PackageGraph)
		repo.Set(pkgsKey, graphs)
	}
	if g, ok := graphs[pass.Pkg.Path()]; ok {
		return prog, g
	}
	fs := pass.Files[:0:0]
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go") {
			fs = append(fs, f)
		}
	}
	g := prog.AddPackage(fs, pass.Pkg, pass.TypesInfo)
	graphs[pass.Pkg.Path()] = g
	return prog, g
}

// ProgramOf returns the shared Program accumulated in repo, or nil if no
// pass has called Of yet — the view Finish hooks use.
func ProgramOf(repo *analysis.Repo) *Program {
	prog, _ := repo.Get(progKey).(*Program)
	return prog
}
