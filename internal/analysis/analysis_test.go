package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"pvfsib/internal/analysis"
)

// probe reports every call expression, so a test can see exactly which
// lines a directive covers.
var probe = &analysis.Analyzer{
	Name: "probe",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					pass.Reportf(call.Pos(), "call")
				}
				return true
			})
		}
		return nil
	},
}

// TestDirectiveCoversItsOwnFileOnly pins the suppression table to (file,
// line): a.go's directive covers a.go's line 4, not the call that happens to
// sit on line 4 of b.go.
func TestDirectiveCoversItsOwnFileOnly(t *testing.T) {
	srcs := map[string]string{
		"a.go": "package p\nfunc a() {\n\t//pvfslint:ok probe audited here, in a.go\n\tf()\n}\nfunc f() {}\n",
		"b.go": "package p\nfunc b() {\n\n\tf()\n}\n",
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range []string{"a.go", "b.go"} {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	pkg, err := (&types.Config{}).Check("p", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAll([]*analysis.Analyzer{probe}, fset, files, pkg, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || fset.Position(diags[0].Pos).String() != "b.go:4:2" {
		t.Fatalf("got %d diagnostics %v, want exactly the call at b.go:4:2", len(diags), diags)
	}
}
