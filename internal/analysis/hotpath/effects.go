package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/callgraph"
	"pvfsib/internal/analysis/cfg"
)

// localEffect is one effect site in a function's own body.
type localEffect struct {
	kind Kind
	what string
	pos  token.Pos
}

// localEffects walks one function body and records its own effect sites —
// the base facts the fixpoint propagates. Function-literal bodies are
// descended into: the callgraph attributes a literal's calls to the
// enclosing declaration, and the effects follow the same attribution.
// Results are cached: within an SCC the fixpoint re-runs summarize, and the
// body does not change between sweeps.
func (h *hot) localEffects(n *callgraph.Node) []localEffect {
	if le, ok := h.facts[n]; ok {
		return le
	}
	var out []localEffect
	add := func(kind Kind, what string, pos token.Pos) {
		out = append(out, localEffect{kind: kind, what: what, pos: pos})
	}
	info := n.Info
	if n.Decl != nil && n.Decl.Body != nil {
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.GoStmt:
				add(KindAlloc, "go statement (new goroutine)", nd.Pos())
			case *ast.SendStmt:
				add(KindBlock, "chan send", nd.Pos())
			case *ast.UnaryExpr:
				switch nd.Op {
				case token.ARROW:
					add(KindBlock, "chan receive", nd.Pos())
				case token.AND:
					if _, ok := nd.X.(*ast.CompositeLit); ok {
						add(KindAlloc, "composite literal (&T{})", nd.Pos())
					}
				}
			case *ast.SelectStmt:
				add(KindBlock, "select", nd.Pos())
			case *ast.RangeStmt:
				if tv, ok := info.Types[nd.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						add(KindBlock, "range over channel", nd.Pos())
					}
				}
			case *ast.FuncLit:
				add(KindAlloc, "closure", nd.Pos())
			case *ast.CompositeLit:
				if tv, ok := info.Types[nd]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Slice:
						add(KindAlloc, "slice literal", nd.Pos())
					case *types.Map:
						add(KindAlloc, "map literal", nd.Pos())
					}
				}
			case *ast.BinaryExpr:
				if nd.Op == token.ADD && isStringExpr(info, nd.X) && !isConstExpr(info, nd) {
					add(KindAlloc, "string concatenation", nd.Pos())
				}
			case *ast.AssignStmt:
				if nd.Tok == token.ADD_ASSIGN && len(nd.Lhs) == 1 && isStringExpr(info, nd.Lhs[0]) {
					add(KindAlloc, "string concatenation", nd.Pos())
				}
				for _, lhs := range nd.Lhs {
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						if tv, ok := info.Types[ix.X]; ok {
							if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
								add(KindAlloc, "map insert", nd.Pos())
							}
						}
					}
				}
			case *ast.CallExpr:
				if cfg.NeverReturns(info, nd) {
					// Building the arguments of a call that never returns
					// is not a hot-path effect: the run is already over.
					return false
				}
				h.callEffects(info, nd, add)
			}
			return true
		})
	}
	h.facts[n] = out
	return out
}

// callEffects records the effects a call expression itself implies:
// allocating builtins, copying conversions, variadic slices, and arguments
// boxed into interface parameters.
func (h *hot) callEffects(info *types.Info, call *ast.CallExpr, add func(Kind, string, token.Pos)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(KindAlloc, "make", call.Pos())
			case "new":
				add(KindAlloc, "new", call.Pos())
			case "append":
				add(KindAlloc, "append (may grow)", call.Pos())
			case "print", "println":
				add(KindSyscall, "builtin "+b.Name(), call.Pos())
			}
			return
		}
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// A conversion: only the representation-changing ones copy.
		if convAllocates(tv.Type, info.Types[call.Args[0]].Type) {
			add(KindAlloc, "string conversion", call.Pos())
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		add(KindAlloc, "variadic argument slice", call.Pos())
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if boxes(info, pt, arg) {
			add(KindAlloc, "interface conversion (boxing)", arg.Pos())
		}
	}
}

// boxes reports whether passing arg to a parameter of type pt converts a
// concrete value into an interface in a way that may heap-allocate: the
// parameter is an interface, the argument is a concrete non-constant value,
// and its representation is not already a single pointer word.
func boxes(info *types.Info, pt types.Type, arg ast.Expr) bool {
	if _, isIface := pt.Underlying().(*types.Interface); !isIface {
		return false
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Value != nil {
		return false
	}
	at := tv.Type
	if at == nil || at == types.Typ[types.UntypedNil] {
		return false
	}
	if _, isIface := at.Underlying().(*types.Interface); isIface {
		return false // interface-to-interface carries the existing box
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		if at.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// convAllocates reports whether converting from to dst copies the value's
// backing store (string <-> []byte/[]rune).
func convAllocates(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// intrinsicEffect assigns effects to calls that leave the analyzed program
// (stdlib and export-data-only packages). Everything not in this table is
// treated as effect-free — the deliberate closed-world assumption: the
// simulator is stdlib-only, and the table covers the stdlib's blocking,
// wall-clock, and allocating entry points that hot-path code could
// plausibly reach. A new stdlib dependency on the hot path extends the
// table, not the audits.
func intrinsicEffect(fn *types.Func) (Kind, string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0, "", false
	}
	name := fn.Name()
	qual := pkg.Name() + "." + name
	switch pkg.Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return KindSyscall, qual, true
		case "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			return KindBlock, qual, true
		}
	case "os", "syscall":
		return KindSyscall, qual, true
	case "runtime":
		switch name {
		case "GC", "Gosched", "ReadMemStats":
			return KindSyscall, qual, true
		}
	case "fmt":
		switch name {
		case "Sprint", "Sprintf", "Sprintln", "Errorf", "Appendf", "Append", "Appendln":
			return KindAlloc, qual, true
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln",
			"Scan", "Scanf", "Scanln", "Fscan", "Fscanf", "Fscanln":
			return KindSyscall, qual, true
		}
	case "errors":
		switch name {
		case "New", "Join":
			return KindAlloc, qual, true
		}
	case "strconv":
		switch name {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote", "QuoteRune",
			"AppendInt", "AppendUint", "AppendFloat", "AppendQuote":
			return KindAlloc, qual, true
		}
	case "strings":
		switch name {
		case "Repeat", "Join", "Replace", "ReplaceAll", "ToUpper", "ToLower",
			"Split", "SplitN", "Fields", "Map", "Clone", "Title",
			// strings.Builder methods grow a heap buffer.
			"String", "WriteString", "WriteByte", "WriteRune", "Write", "Grow":
			return KindAlloc, qual, true
		}
	case "bytes":
		switch name {
		case "Repeat", "Join", "ToUpper", "ToLower", "Clone", "Split", "SplitN", "Fields",
			"String", "WriteString", "WriteByte", "WriteRune", "Write", "Grow":
			return KindAlloc, qual, true
		}
	case "sync":
		switch name {
		case "Lock", "RLock", "Wait", "Do":
			return KindBlock, qual, true
		}
	case "sort":
		switch name {
		case "Sort", "Stable", "Strings", "Ints", "Float64s":
			// sort boxes through sort.Interface / allocates scratch.
			return KindAlloc, qual, true
		}
	}
	return 0, "", false
}

// exprObj returns the object an identifier or selector expression names.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// coroHandles finds the package's coroutine handles: variables and fields
// holding a func value obtained from iter.Pull — its next and stop results,
// the yield parameter of the function it was given, and copies of those.
// Calling one suspends the caller until the other side switches back.
func coroHandles(pass *analysis.Pass) map[types.Object]bool {
	info := pass.TypesInfo
	handles := make(map[types.Object]bool)
	mark := func(obj types.Object) {
		if obj != nil { // _, or an element of something
			handles[obj] = true
		}
	}
	assigns := func(visit func(*ast.AssignStmt)) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(nd ast.Node) bool {
				if as, ok := nd.(*ast.AssignStmt); ok {
					visit(as)
				}
				return true
			})
		}
	}
	assigns(func(as *ast.AssignStmt) { // next, stop := iter.Pull(seq)
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(as.Rhs) != 1 || len(call.Args) != 1 {
			return
		}
		fn, ok := exprObj(info, call.Fun).(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "iter" || fn.Name() != "Pull" {
			return
		}
		for _, lhs := range as.Lhs {
			mark(exprObj(info, lhs))
		}
		if seq, ok := info.TypeOf(call.Args[0]).(*types.Signature); ok && seq.Params().Len() == 1 {
			mark(seq.Params().At(0))
		}
	})
	assigns(func(as *ast.AssignStmt) { // c.yield = yield
		for i, rhs := range as.Rhs {
			if len(as.Lhs) == len(as.Rhs) && handles[exprObj(info, rhs)] {
				mark(exprObj(info, as.Lhs[i]))
			}
		}
	})
	return handles
}

// devirt resolves an interface call site to a single concrete method when
// the receiver is a local variable with exactly one assignment of concrete
// type and its address is never taken — the per-callsite devirtualization
// rule. It is deliberately narrow: anything less locally evident stays a
// dynamic site, which keeps the result identical whether or not the
// implementors' packages are in the run.
func (h *hot) devirt(n *callgraph.Node, c callgraph.Call) (string, bool) {
	call, ok := c.Site.(*ast.CallExpr)
	if !ok || n.Decl == nil || n.Decl.Body == nil {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	obj, ok := n.Info.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return "", false
	}
	// Local to this function body (parameters are excluded: they sit before
	// the body and their value is the caller's choice).
	if obj.Pos() < n.Decl.Body.Pos() || obj.Pos() >= n.Decl.Body.End() {
		return "", false
	}
	var assigns int
	var concrete types.Type
	bad := false
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			for i, lhs := range nd.Lhs {
				lid, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if n.Info.Defs[lid] != obj && n.Info.Uses[lid] != obj {
					continue
				}
				assigns++
				if len(nd.Rhs) == len(nd.Lhs) {
					if tv, ok := n.Info.Types[nd.Rhs[i]]; ok {
						concrete = tv.Type
						continue
					}
				}
				bad = true // multi-value or untypeable RHS
			}
		case *ast.ValueSpec:
			for i, name := range nd.Names {
				if n.Info.Defs[name] != obj {
					continue
				}
				if i < len(nd.Values) {
					assigns++
					if tv, ok := n.Info.Types[nd.Values[i]]; ok {
						concrete = tv.Type
					} else {
						bad = true
					}
				}
			}
		case *ast.UnaryExpr:
			if nd.Op == token.AND {
				if xid, ok := ast.Unparen(nd.X).(*ast.Ident); ok && n.Info.Uses[xid] == obj {
					bad = true // address taken: assignable through the pointer
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{nd.Key, nd.Value} {
				if rid, ok := e.(*ast.Ident); ok && (n.Info.Defs[rid] == obj || n.Info.Uses[rid] == obj) {
					bad = true
				}
			}
		}
		return true
	})
	if bad || assigns != 1 || concrete == nil {
		return "", false
	}
	if _, isIface := concrete.Underlying().(*types.Interface); isIface {
		return "", false
	}
	if concrete == types.Typ[types.UntypedNil] {
		return "", false
	}
	mobj, _, _ := types.LookupFieldOrMethod(concrete, true, n.Pkg, c.Method)
	fn, ok := mobj.(*types.Func)
	if !ok {
		return "", false
	}
	return callgraph.IDOf(fn), true
}
