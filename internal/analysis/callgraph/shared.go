package callgraph

import "pvfsib/internal/analysis"

// progKey is the Repo key of the run-wide Program.
const progKey = "callgraph.prog"

// Of adds the pass's package to the run-wide Program kept in the pass's
// Repo and returns the Program and the package's slice of it. detcheck, its
// one caller, calls it once per package. The driver's package order is the
// caller's contract exactly as it is for AddPackage: dependencies first (the
// loader guarantees it).
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
	return prog, prog.AddPackage(pass.Files, pass.Pkg, pass.TypesInfo)
}
