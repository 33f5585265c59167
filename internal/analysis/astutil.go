package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Small AST and type helpers the flow-sensitive analyzers share.

// IdentObj resolves a plain identifier expression (parentheses allowed) to
// the object it uses or defines; nil for the blank identifier and anything
// that is not an identifier.
func IdentObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// IsBlank reports whether e is the blank identifier.
func IsBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// IsNil reports whether e is the predeclared nil.
func IsNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// IsErrorType reports whether t is the predeclared error type.
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// CallName is the name a call is made through, for messages: the function
// or method identifier, or "call" for anything else.
func CallName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}

// ForEachCall visits every call expression in n, in source order, without
// descending into function literals: a literal's body runs later, as its
// own scope.
func ForEachCall(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(m)
		}
		return true
	})
}

// IdentsIn collects the identifiers in a subtree.
func IdentsIn(n ast.Node) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			out = append(out, id)
		}
		return true
	})
	return out
}

// Line is the position of pos without its column: the short file:line form
// a message uses to point at another site.
func (p *Pass) Line(pos token.Pos) token.Position {
	out := p.Fset.Position(pos)
	out.Column = 0
	return out
}
