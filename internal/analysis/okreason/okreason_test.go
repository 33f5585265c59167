package okreason_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/okreason"
)

// okreason cannot use the analysistest corpus driver: its diagnostics land
// on directive comment lines, and Go lexes one comment per line, so a
// `// want` expectation can never share the line it needs to match. This
// test drives the analyzer directly instead.

func runOn(t *testing.T, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	pkg, err := (&types.Config{}).Check("a", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	suite := okreason.New("nopanic")
	diags, err := analysis.RunAll([]*analysis.Analyzer{suite}, fset, []*ast.File{f}, pkg, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestWellFormedDirectiveIsSilent(t *testing.T) {
	diags := runOn(t, `package a
func f() {
	//pvfslint:ok nopanic a negative size is a caller bug
	_ = 0
}`)
	if len(diags) != 0 {
		t.Fatalf("got %d diagnostics, want 0: %v", len(diags), diags)
	}
}

func TestMissingReasonIsFlagged(t *testing.T) {
	diags := runOn(t, `package a
func f() {
	//pvfslint:ok nopanic
	_ = 0
}`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "pvfslint:ok nopanic gives no reason") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

func TestMissingAnalyzerIsFlagged(t *testing.T) {
	diags := runOn(t, `package a
func f() {
	//pvfslint:ok
	_ = 0
}`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "names no analyzer") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

func TestEndOfLineDirectiveChecked(t *testing.T) {
	diags := runOn(t, `package a
func f() {
	_ = 0 //pvfslint:ok nopanic
}`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
}

// TestUnknownAnalyzerIsFlagged: a directive naming an analyzer the suite
// does not have suppresses nothing, reason or not.
func TestUnknownAnalyzerIsFlagged(t *testing.T) {
	diags := runOn(t, `package a
func f() {
	//pvfslint:ok simblock release is re-acquired immediately below
	_ = 0
}`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "pvfslint:ok names simblock, which is not an analyzer of the suite") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// TestReasonlessDirectiveCannotSelfSuppress pins the escape hatch shut: a
// reasonless "//pvfslint:ok okreason" must not silence the very diagnostic
// that demands the reason.
func TestReasonlessDirectiveCannotSelfSuppress(t *testing.T) {
	diags := runOn(t, `package a
func f() {
	//pvfslint:ok okreason
	_ = 0
}`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (the directive must not suppress okreason itself): %v", len(diags), diags)
	}
}
