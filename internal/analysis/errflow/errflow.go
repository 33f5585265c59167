// Package errflow defines a flow-sensitive analyzer for dropped errors from
// this repository's own APIs. PR 1 converted the hot paths from panicking to
// returning errors; that refactor only helps if callers look at the result.
//
// The analyzer tracks, per function, the set of local error variables that
// hold a still-unchecked error from a repo call (a callee declared in this
// module). Any read of the variable — a nil check, passing it on, returning
// it, wrapping it, capture by a closure — counts as checking. It reports:
//
//   - a statement-position repo call whose error result is discarded;
//   - an error result assigned to the blank identifier;
//   - an unchecked error variable overwritten by a new value (the classic
//     shadow-by-reassignment bug);
//   - a return (or falling off the end of the function) while an error
//     variable is unchecked on every path reaching it.
//
// The join is intersection: a variable is flagged only when no path checked
// it, so "checked on one arm only" stays silent. Deferred calls are exempt
// from the discard check ("defer release" is accepted idiom). Test files
// are not analyzed: the loader reads none.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/cfg"
	"pvfsib/internal/analysis/dataflow"
)

// Analyzer flags discarded, blanked, overwritten, and never-checked error
// results from this module's APIs.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "error results from repo APIs must be checked, not discarded, blanked, or overwritten",
	Run:  run,
}

// fact maps a local error variable to the position of the unchecked repo
// call that assigned it. Checked variables are absent.
type fact map[types.Object]token.Pos

func (f fact) clone() fact {
	out := make(fact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok {
				if fn.Body != nil {
					checkFunc(pass, fn.Type, fn.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// checkFunc analyzes one function body, then recurses into its literals.
func checkFunc(pass *analysis.Pass, typ *ast.FuncType, body *ast.BlockStmt) {
	prob := &problem{
		pass:         pass,
		namedResults: namedResultObjs(pass, typ),
		deferred:     deferredCalls(body),
	}
	g := cfg.Build(body, pass.TypesInfo)
	res := dataflow.Fixpoint(g, prob)

	prob.report = true
	res.Replay(prob, func(blk *cfg.Block, n ast.Node, before dataflow.Fact) {})
	prob.report = false

	if exit, ok := res.In[g.Exit].(fact); ok {
		for obj, pos := range exit {
			if !prob.reported[obj] {
				pass.Reportf(pos, "error assigned to %s is never checked", obj.Name())
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkFunc(pass, lit.Type, lit.Body)
			return false
		}
		return true
	})
}

// namedResultObjs returns the objects of named result parameters: a naked
// return implicitly reads them.
func namedResultObjs(pass *analysis.Pass, typ *ast.FuncType) []types.Object {
	var out []types.Object
	if typ.Results == nil {
		return out
	}
	for _, field := range typ.Results.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// deferredCalls collects the call expressions of defer statements: their
// discarded errors are accepted idiom (the value has nowhere to go).
func deferredCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			out[d.Call] = true
		}
		return true
	})
	return out
}

type problem struct {
	pass         *analysis.Pass
	namedResults []types.Object
	deferred     map[*ast.CallExpr]bool
	report       bool
	reported     map[types.Object]bool
}

func (p *problem) Entry() dataflow.Fact { return fact{} }

func (p *problem) TransferEdge(e cfg.Edge, out dataflow.Fact) dataflow.Fact { return out }

// Join intersects: a variable stays flagged only when unchecked on every
// path into the block.
func (p *problem) Join(a, b dataflow.Fact) dataflow.Fact {
	fa, fb := a.(fact), b.(fact)
	out := make(fact)
	for k, v := range fa {
		if _, ok := fb[k]; ok {
			out[k] = v
		}
	}
	return out
}

func (p *problem) Equal(a, b dataflow.Fact) bool {
	fa, fb := a.(fact), b.(fact)
	if len(fa) != len(fb) {
		return false
	}
	for k := range fa {
		if _, ok := fb[k]; !ok {
			return false
		}
	}
	return true
}

func (p *problem) Transfer(n ast.Node, in dataflow.Fact) dataflow.Fact {
	f := in.(fact)
	out := f
	cloned := false
	mutate := func() fact {
		if !cloned {
			out = f.clone()
			cloned = true
		}
		return out
	}

	if _, ok := n.(*ast.DeferStmt); ok {
		return out
	}

	// Reads: any use of a tracked variable checks it. Writes (assignment
	// LHS) are not reads; closure bodies are (the closure may check later).
	writes := make(map[*ast.Ident]bool)
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				writes[id] = true
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || writes[id] {
			return true
		}
		obj := p.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := out[obj]; tracked {
			delete(mutate(), obj)
		}
		return true
	})

	switch stmt := n.(type) {
	case *ast.AssignStmt:
		p.transferAssign(stmt, mutate, out)
	case *ast.CallExpr:
		// The CFG stores an expression statement as its bare expression:
		// a node that IS a call discards all its results.
		if !p.deferred[stmt] {
			if i := p.errResult(stmt); i >= 0 {
				p.reportAt(stmt.Pos(), "error result of %s is discarded", analysis.CallName(stmt))
			}
		}
	case *ast.ReturnStmt:
		if len(stmt.Results) == 0 {
			// Naked return: named results are implicitly read.
			for _, obj := range p.namedResults {
				if _, tracked := out[obj]; tracked {
					delete(mutate(), obj)
				}
			}
		}
		for obj, pos := range out {
			p.reportObj(obj, stmt.Pos(), "return without checking the error assigned to %s at %s", obj.Name(), p.pass.Line(pos))
		}
	}
	return out
}

// transferAssign flags blank and overwritten error results and tracks new
// unchecked assignments.
func (p *problem) transferAssign(stmt *ast.AssignStmt, mutate func() fact, out fact) {
	// Overwrites: assigning anything to a still-unchecked error variable
	// loses the old error.
	for _, lhs := range stmt.Lhs {
		obj := analysis.IdentObj(p.pass.TypesInfo, lhs)
		if obj == nil {
			continue
		}
		if pos, tracked := out[obj]; tracked {
			p.reportObj(obj, lhs.Pos(), "%s is overwritten before the error assigned at %s is checked", obj.Name(), p.pass.Line(pos))
			delete(mutate(), obj)
		}
	}

	// New error results from repo calls.
	if len(stmt.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	i := p.errResult(call)
	if i < 0 {
		return
	}
	var target ast.Expr
	if len(stmt.Lhs) == 1 && i == 0 {
		target = stmt.Lhs[0] // single-result error call
	} else if i < len(stmt.Lhs) && len(stmt.Lhs) > 1 {
		target = stmt.Lhs[i]
	} else {
		return
	}
	if analysis.IsBlank(target) {
		p.reportAt(target.Pos(), "error result of %s is assigned to the blank identifier", analysis.CallName(call))
		return
	}
	if obj := analysis.IdentObj(p.pass.TypesInfo, target); obj != nil && p.trackable(obj) {
		mutate()[obj] = call.Pos()
	}
}

// errResult returns the index of the error result of a repo-API call, or -1
// when the callee is not ours or returns no error.
func (p *problem) errResult(call *ast.CallExpr) int {
	fn := dataflow.Callee(p.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return -1
	}
	if fn.Pkg() != p.pass.Pkg && !strings.HasPrefix(fn.Pkg().Path(), "pvfsib") {
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if analysis.IsErrorType(res.At(i).Type()) {
			return i
		}
	}
	return -1
}

// trackable keeps the analysis local: only non-field variables of error
// type declared in this package are tracked across statements.
func (p *problem) trackable(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() != p.pass.Pkg {
		return false
	}
	if !analysis.IsErrorType(v.Type()) {
		return false
	}
	// Skip package-level variables: their lifetime crosses functions.
	return v.Parent() != v.Pkg().Scope()
}

func (p *problem) reportAt(pos token.Pos, format string, args ...any) {
	if p.report {
		p.pass.Reportf(pos, format, args...)
	}
}

func (p *problem) reportObj(obj types.Object, pos token.Pos, format string, args ...any) {
	if !p.report {
		return
	}
	if p.reported == nil {
		p.reported = make(map[types.Object]bool)
	}
	p.reported[obj] = true
	p.pass.Reportf(pos, format, args...)
}
