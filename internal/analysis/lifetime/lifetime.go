// Package lifetime defines a flow-sensitive analyzer for owned handles:
// every value an origin call hands out must be released exactly once on
// every path that completes normally. The owned kinds are rows of one
// table:
//
//	registration  ib.MR, ib.Buffer, ogr.Result from Register, Get,
//	              RegisterBuffers, GroupRegions (internal/ib, internal/ogr);
//	              released by Deregister, Put, Release. A leaked one is a
//	              pin-down leak.
//	span          trace.Span from Tracer.Start, Tracer.NewRequest; ended by
//	              End, EndErr. An unended span records no duration — it
//	              vanishes from profiles and renders as an unclosed bar in
//	              Perfetto — and a second end overwrites the first close.
//
// The analyzer runs the dataflow engine over each function's CFG, tracking
// an ownership state per local variable:
//
//	live      the handle is held, this variable owns it
//	dead      the origin failed on this path (its error result is known
//	          non-nil), the handle is nil
//	released  released on this path
//	escaped   ownership left the function: returned, stored into a field,
//	          slice, map, or composite literal, passed to a call, or
//	          captured by a function literal
//	mixed     paths disagree; the analyzer stays silent
//
// It reports:
//
//   - use after release: a released handle is read, passed, or returned;
//   - double release: a second release on a definitely-released handle
//     (including an explicit release shadowed by a deferred one, caught
//     when the CFG's defer exit chain replays the deferred call);
//   - leaks: a return — the early error return is the classic shape — or
//     the function end reached while a handle is definitely live,
//     unreleased, unescaped, and not covered by a deferred release;
//   - discards: an origin's result assigned to the blank identifier or
//     dropped as an expression statement, and a live handle overwritten.
//
// Error-gated origins are path-sensitive: after "mr, err := Register(...)",
// the "err != nil" arm knows mr is nil, so an early "return err" before the
// registration succeeds is not a leak — only returns after the success arm
// are.
//
// Facts flow one level across intra-package calls: a package function that
// releases one of its parameters (directly or through a value derived from
// it, like ogr's releaseAll ranging over res.MRs) acts as a release at its
// call sites, and one that returns a fresh handle acts as an origin.
//
// RegisterStatic is deliberately not an origin: static registrations are
// setup-lifetime by contract and are never deregistered. Test files are
// not analyzed (the loader reads none) — tests exercise misuse on purpose.
package lifetime

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/cfg"
	"pvfsib/internal/analysis/dataflow"
)

// Analyzer flags use-after-release, double release, and leaked or discarded
// registrations and spans.
var Analyzer = &analysis.Analyzer{
	Name: "lifetime",
	Doc:  "registrations (ib.MR, ib.Buffer, ogr.Result) and spans (trace.Span) must be released exactly once on every normal path",
	Run:  run,
}

// kind is one row of the ownership table: the owned types, the calls that
// hand one out and take it back, and the words its findings use.
type kind struct {
	owned    []named  // an origin returns one; a release takes one
	origins  []string // origin function and method names
	releases []string // release function and method names

	noun     string // what is owned
	release  string // the verb that gives it back
	released string
	acquired string // what the origin did
}

// named is a type by declaring package (path suffix) and name.
type named struct{ pkg, name string }

var kinds = []*kind{
	{
		owned:    []named{{"internal/ib", "MR"}, {"internal/ib", "Buffer"}, {"internal/ogr", "Result"}},
		origins:  []string{"Register", "Get", "RegisterBuffers", "GroupRegions"},
		releases: []string{"Deregister", "Put", "Release"},
		noun:     "registration", release: "release", released: "released", acquired: "registered",
	},
	{
		owned:    []named{{"internal/trace", "Span"}},
		origins:  []string{"Start", "NewRequest"},
		releases: []string{"End", "EndErr"},
		noun:     "span", release: "end", released: "ended", acquired: "started",
	},
}

// owns reports whether t is one of the kind's owned types.
func (k *kind) owns(t types.Type) bool {
	return slices.ContainsFunc(k.owned, func(o named) bool { return analysis.NamedFrom(t, o.pkg, o.name) })
}

// declares reports whether fn comes from a package that declares one of the
// kind's owned types.
func (k *kind) declares(fn *types.Func) bool {
	return fn.Pkg() != nil && slices.ContainsFunc(k.owned, func(o named) bool { return analysis.PathHasSuffix(fn.Pkg().Path(), o.pkg) })
}

// state is one variable's ownership state.
type state uint8

const (
	live state = iota
	dead
	released
	escaped
	mixed
)

// varState is the per-variable fact: the ownership state, the kind owned,
// the error object gating the origin (nil once checked or when the origin
// cannot fail), and the origin position for diagnostics.
type varState struct {
	st     state
	kind   *kind
	errObj types.Object
	origin token.Pos
}

// fact maps tracked variables to their state. Facts are persistent: every
// transfer that changes anything copies first.
type fact map[types.Object]varState

func (f fact) clone() fact {
	out := make(fact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// summary is the one-level call fact for an intra-package function.
type summary struct {
	// releasesParams[i] is true when the function releases its i-th
	// parameter (or a value derived from it) on some path.
	releasesParams []bool
	// returns is the kind of a fresh handle some return gives the caller,
	// making the function an origin; nil if none does.
	returns *kind
}

func run(pass *analysis.Pass) error {
	a := &lifetime{pass: pass, info: pass.TypesInfo}
	a.summaries = dataflow.Summarize(pass.TypesInfo, pass.Files, a.summarize)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				a.checkFunc(fd.Body)
			}
		}
	}
	return nil
}

type lifetime struct {
	pass      *analysis.Pass
	info      *types.Info
	summaries map[*types.Func]summary
}

// checkFunc analyzes one function body, then recurses into every function
// literal it contains (each literal is its own lifetime scope).
func (a *lifetime) checkFunc(body *ast.BlockStmt) {
	g := cfg.Build(body, a.info)
	prob := &problem{a: a, deferReleased: a.deferReleased(body)}
	res := dataflow.Fixpoint(g, prob)

	// Reporting pass: replay each reachable block with reporting on.
	prob.report = true
	res.Replay(prob, func(blk *cfg.Block, n ast.Node, before dataflow.Fact) {})
	prob.report = false

	// Function-end leaks: a variable still definitely live once every path
	// (after the defer chain) has merged into the exit was never released.
	if exit, ok := res.In[g.Exit].(fact); ok {
		for obj, vs := range exit {
			if vs.st == live && !prob.reported[obj] {
				a.pass.Reportf(vs.origin, "%s assigned to %s is never %s on some path to the end of the function", vs.kind.noun, obj.Name(), vs.kind.released)
			}
		}
	}

	// Nested literals.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			a.checkFunc(lit.Body)
			return false
		}
		return true
	})
}

// deferReleased collects the variables released by deferred calls anywhere
// in the body (including inside deferred closures): these are exempt from
// the early-return leak check, since the defer runs on that exit too.
func (a *lifetime) deferReleased(body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		ast.Inspect(d.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if target, ok := a.releaseTarget(call); ok {
					if obj := analysis.IdentObj(a.info, target); obj != nil {
						out[obj] = true
					}
				}
			}
			return true
		})
		return true
	})
	return out
}

// problem implements dataflow.Problem for one function.
type problem struct {
	a             *lifetime
	deferReleased map[types.Object]bool
	report        bool
	reported      map[types.Object]bool
}

func (p *problem) Entry() dataflow.Fact { return fact{} }

func (p *problem) Join(x, y dataflow.Fact) dataflow.Fact {
	fx, fy := x.(fact), y.(fact)
	out := make(fact, len(fx)+len(fy))
	for k, v := range fx {
		if w, ok := fy[k]; ok {
			out[k] = joinVar(v, w)
		} else {
			out[k] = v // declared on one arm only: keep its obligation
		}
	}
	for k, w := range fy {
		if _, ok := fx[k]; !ok {
			out[k] = w
		}
	}
	return out
}

func joinVar(v, w varState) varState {
	if v.st != w.st {
		return varState{st: mixed, kind: v.kind, origin: v.origin}
	}
	if v.errObj != w.errObj {
		v.errObj = nil
	}
	return v
}

func (p *problem) Equal(x, y dataflow.Fact) bool {
	fx, fy := x.(fact), y.(fact)
	if len(fx) != len(fy) {
		return false
	}
	for k, v := range fx {
		if w, ok := fy[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// TransferEdge refines states along branch edges: "err != nil" kills the
// handles gated by err on the failure arm and ungates them on the success
// arm; a nil-check on the handle itself refines mixed states.
func (p *problem) TransferEdge(e cfg.Edge, out dataflow.Fact) dataflow.Fact {
	f := out.(fact)
	if e.Cond == nil {
		return f
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return f
	}
	info := p.a.info
	var operand ast.Expr
	switch {
	case analysis.IsNil(info, bin.Y):
		operand = bin.X
	case analysis.IsNil(info, bin.X):
		operand = bin.Y
	default:
		return f
	}
	obj := analysis.IdentObj(info, operand)
	if obj == nil {
		return f
	}
	// nonNil is the truth of "operand != nil" along this edge.
	nonNil := e.Branch == (bin.Op == token.NEQ)

	var changed fact
	set := func(k types.Object, vs varState) {
		if changed == nil {
			changed = f.clone()
		}
		changed[k] = vs
	}
	for k, vs := range f {
		if vs.errObj == obj {
			// The gating error is checked on this edge.
			if nonNil {
				vs.st = dead // the origin failed; handle is nil
			}
			vs.errObj = nil
			set(k, vs)
			continue
		}
		if k == obj {
			// Nil check on the handle itself.
			if nonNil && vs.st == mixed {
				vs.st = live
				set(k, vs)
			} else if !nonNil && (vs.st == mixed || vs.st == live) {
				vs.st = dead
				set(k, vs)
			}
		}
	}
	if changed != nil {
		return changed
	}
	return f
}

// Transfer applies one node. The heavy lifting — recognizing origins,
// releases, uses, escapes, and return-site leaks — all happens here, so the
// same code drives both the fixpoint and the reporting replay.
func (p *problem) Transfer(n ast.Node, in dataflow.Fact) dataflow.Fact {
	f := in.(fact)
	out := f // copy-on-write
	cloned := false
	mutate := func() fact {
		if !cloned {
			out = f.clone()
			cloned = true
		}
		return out
	}

	// Deferred releases are replayed on the exit chain; the DeferStmt node
	// itself only marks the registration point.
	if _, ok := n.(*ast.DeferStmt); ok {
		return out
	}
	n = cfg.Evaluated(n)

	// 1. Releases anywhere in this node (not inside function literals).
	releasedHere := make(map[*ast.Ident]bool)
	analysis.ForEachCall(n, func(call *ast.CallExpr) {
		target, ok := p.a.releaseTarget(call)
		if !ok {
			return
		}
		obj := analysis.IdentObj(p.a.info, target)
		if obj == nil {
			return
		}
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			releasedHere[id] = true
		}
		vs, tracked := out[obj]
		if !tracked {
			return
		}
		switch vs.st {
		case released:
			p.reportf(obj, call.Pos(), "double %s of %s (%s from %s already %s)", vs.kind.release, obj.Name(), vs.kind.noun, p.a.pass.Line(vs.origin), vs.kind.released)
		case live, dead, mixed:
			vs.st = released
			mutate()[obj] = vs
		}
	})

	// 2. Origins: track assignments of origin calls; flag discards. The CFG
	// stores an expression statement as its bare expression, so a node that
	// IS a call is a statement-position call whose results vanish.
	switch stmt := n.(type) {
	case *ast.AssignStmt:
		p.transferAssign(stmt, &out, mutate)
	case *ast.CallExpr:
		if k := p.a.origin(stmt); k != nil {
			p.reportAt(stmt.Pos(), "result of %s is discarded: the %s can never be %s", analysis.CallName(stmt), k.noun, k.released)
		}
	}

	// 3. Uses and escapes of tracked variables, and return-site leaks.
	p.scanUses(n, out, mutate, releasedHere)

	if ret, ok := n.(*ast.ReturnStmt); ok {
		p.transferReturn(ret, out)
	}
	return out
}

// transferAssign handles origin assignments, ownership moves, gate breaks,
// and overwrite leaks.
func (p *problem) transferAssign(stmt *ast.AssignStmt, out *fact, mutate func() fact) {
	info := p.a.info
	// Overwrites and gate breaks on every assigned ident.
	for _, lhs := range stmt.Lhs {
		obj := analysis.IdentObj(info, lhs)
		if obj == nil {
			continue
		}
		if vs, ok := (*out)[obj]; ok && vs.st == live {
			p.reportf(obj, lhs.Pos(), "%s is overwritten while it still owns a live %s (from %s): the handle is lost", obj.Name(), vs.kind.noun, p.a.pass.Line(vs.origin))
			vs.st = mixed
			mutate()[obj] = vs
		}
		// Assigning to a variable that gates handles breaks the gate: the
		// new value has nothing to do with the old origin.
		for k, vs := range *out {
			if vs.errObj == obj {
				vs.errObj = nil
				mutate()[k] = vs
			}
		}
	}

	// Origin call on the right-hand side.
	if len(stmt.Rhs) == 1 {
		if call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr); ok {
			if k := p.a.origin(call); k != nil {
				var errObj types.Object
				if len(stmt.Lhs) == 2 {
					if o := analysis.IdentObj(info, stmt.Lhs[1]); o != nil && analysis.IsErrorType(o.Type()) {
						errObj = o
					}
				}
				target := stmt.Lhs[0]
				if analysis.IsBlank(target) {
					p.reportAt(call.Pos(), "%s from %s assigned to the blank identifier: it can never be %s", k.noun, analysis.CallName(call), k.released)
				} else if obj := analysis.IdentObj(info, target); obj != nil {
					mutate()[obj] = varState{st: live, kind: k, errObj: errObj, origin: call.Pos()}
				}
				return
			}
		}
	}

	// Ownership move: dst = src where src is tracked and dst is a plain
	// local. The handle follows the new name.
	if len(stmt.Lhs) == len(stmt.Rhs) {
		for i := range stmt.Lhs {
			src := analysis.IdentObj(info, stmt.Rhs[i])
			if src == nil {
				continue
			}
			vs, ok := (*out)[src]
			if !ok {
				continue
			}
			m := mutate()
			delete(m, src)
			if dst := analysis.IdentObj(info, stmt.Lhs[i]); dst != nil {
				m[dst] = vs
			}
		}
	}
}

// scanUses walks the node for reads of tracked variables (flagging reads of
// released handles), then marks ownership escapes at direct-transfer
// positions: the handle itself passed as a call argument, stored into a
// composite literal, sent on a channel, returned, or captured by a closure.
// Reading a field (mr.LKey as an argument) or calling a method on the
// handle (sp.SetBytes) is a use, not an escape.
func (p *problem) scanUses(n ast.Node, out fact, mutate func() fact, releasedHere map[*ast.Ident]bool) {
	info := p.a.info
	// Identify assignment LHS idents: writing is not reading.
	writes := make(map[*ast.Ident]bool)
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				writes[id] = true
			}
		}
	}

	// Use-after-release pass.
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // handled by the escape pass
		case *ast.BinaryExpr:
			// Nil comparisons are how code legitimately inspects a
			// possibly-released handle; skip the compared ident.
			if (m.Op == token.EQL || m.Op == token.NEQ) &&
				(analysis.IsNil(info, m.X) || analysis.IsNil(info, m.Y)) {
				return false
			}
		case *ast.Ident:
			if writes[m] || releasedHere[m] {
				return true
			}
			obj := info.Uses[m]
			if obj == nil {
				return true
			}
			if vs, ok := out[obj]; ok && vs.st == released {
				p.reportf(obj, m.Pos(), "use of %s after %s (%s from %s was already %s)", obj.Name(), vs.kind.release, vs.kind.noun, p.a.pass.Line(vs.origin), vs.kind.released)
			}
		}
		return true
	})

	// Escape pass: collect idents in direct ownership-transfer positions.
	direct := func(e ast.Expr) {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		if id, ok := e.(*ast.Ident); ok && !releasedHere[id] && !writes[id] {
			p.escape(id, out, mutate)
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			// Captured by a closure: ownership escapes, whatever the
			// closure does with it.
			for _, id := range analysis.IdentsIn(m.Body) {
				p.escape(id, out, mutate)
			}
			return false
		case *ast.CallExpr:
			for _, a := range m.Args {
				direct(a)
			}
		case *ast.CompositeLit:
			for _, el := range m.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					direct(kv.Value)
				} else {
					direct(el)
				}
			}
		case *ast.SendStmt:
			direct(m.Value)
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				direct(r)
			}
		}
		return true
	})

	// A store into anything but a plain ident (field, slice element, map)
	// escapes the stored handle.
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
				direct(as.Rhs[i])
			}
		}
	}
}

func (p *problem) escape(id *ast.Ident, out fact, mutate func() fact) {
	obj := p.a.info.Uses[id]
	if obj == nil {
		return
	}
	if vs, ok := out[obj]; ok && vs.st != released {
		vs.st = escaped
		mutate()[obj] = vs
	}
}

// transferReturn reports early-return leaks: every tracked variable that is
// definitely live here, not returned, and not covered by a deferred release
// leaks its handle on this path.
func (p *problem) transferReturn(ret *ast.ReturnStmt, out fact) {
	returned := make(map[types.Object]bool)
	for _, r := range ret.Results {
		for _, id := range analysis.IdentsIn(r) {
			if obj := p.a.info.Uses[id]; obj != nil {
				returned[obj] = true
			}
		}
	}
	for obj, vs := range out {
		if vs.st != live || returned[obj] || p.deferReleased[obj] {
			continue
		}
		k := vs.kind
		p.reportf(obj, ret.Pos(), "return leaks the live %s held by %s (%s at %s): %s it before returning", k.noun, obj.Name(), k.acquired, p.a.pass.Line(vs.origin), k.release)
	}
}

// reportf reports through the pass when the replay is on, deduplicating the
// end-of-function leak for already-reported variables.
func (p *problem) reportf(obj types.Object, pos token.Pos, format string, args ...any) {
	if !p.report {
		return
	}
	if p.reported == nil {
		p.reported = make(map[types.Object]bool)
	}
	p.reported[obj] = true
	p.a.pass.Reportf(pos, format, args...)
}

func (p *problem) reportAt(pos token.Pos, format string, args ...any) {
	if p.report {
		p.a.pass.Reportf(pos, format, args...)
	}
}

// ---- recognizers ----

// origin returns the kind of handle the call freshly hands the caller, or
// nil: a table origin, or an intra-package function whose summary returns
// one.
func (a *lifetime) origin(call *ast.CallExpr) *kind {
	if fn := dataflow.Callee(a.info, call); fn != nil {
		if s, ok := a.summaries[fn]; ok && s.returns != nil {
			return s.returns
		}
	}
	return a.baseOrigin(call)
}

// releaseTarget returns the expression whose handle the call releases: a
// table release, or an intra-package function whose summary releases one
// of its parameters.
func (a *lifetime) releaseTarget(call *ast.CallExpr) (ast.Expr, bool) {
	if fn := dataflow.Callee(a.info, call); fn != nil {
		if s, ok := a.summaries[fn]; ok {
			for i, rel := range s.releasesParams {
				if rel && i < len(call.Args) {
					return call.Args[i], true
				}
			}
		}
	}
	return a.baseRelease(call)
}

// baseOrigin is the table's origin recognizer: a call by one of a kind's
// origin names, declared beside its owned types, returning one of them.
func (a *lifetime) baseOrigin(call *ast.CallExpr) *kind {
	fn := dataflow.Callee(a.info, call)
	if fn == nil {
		return nil
	}
	res := fn.Type().(*types.Signature).Results()
	for _, k := range kinds {
		if !slices.Contains(k.origins, fn.Name()) || !k.declares(fn) {
			continue
		}
		for i := 0; i < res.Len(); i++ {
			if k.owns(res.At(i).Type()) {
				return k
			}
		}
	}
	return nil
}

// baseRelease is the table's release recognizer: a call by one of a kind's
// release names, declared beside its owned types. It releases its last
// owned-typed argument (HCA.Deregister(p, mr), ogr.Release(p, reg, res)),
// or else an owned receiver (Buffer.Put(), Span.End(now)).
func (a *lifetime) baseRelease(call *ast.CallExpr) (ast.Expr, bool) {
	fn := dataflow.Callee(a.info, call)
	if fn == nil {
		return nil, false
	}
	sig := fn.Type().(*types.Signature)
	for _, k := range kinds {
		if !slices.Contains(k.releases, fn.Name()) || !k.declares(fn) {
			continue
		}
		for i := min(sig.Params().Len(), len(call.Args)) - 1; i >= 0; i-- {
			if k.owns(sig.Params().At(i).Type()) {
				return call.Args[i], true
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sig.Recv() != nil && k.owns(sig.Recv().Type()) {
			return sel.X, true
		}
	}
	return nil, false
}

// summarize computes the one-level call facts for one function declaration
// from the base recognizers, so summaries stay one level deep.
func (a *lifetime) summarize(fn *ast.FuncDecl) summary {
	var params []types.Object
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if obj := a.info.Defs[name]; obj != nil {
				params = append(params, obj)
			}
		}
	}
	s := summary{releasesParams: make([]bool, len(params))}
	if fn.Body == nil {
		return s
	}

	// derived chases a value back to the identifier it came from:
	// "for _, mr := range res.MRs" derives mr from res.
	derived := make(map[types.Object]types.Object)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if v := analysis.IdentObj(a.info, n.Value); v != nil {
				if root := a.rootObj(n.X, derived); root != nil {
					derived[v] = root
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if v := analysis.IdentObj(a.info, lhs); v != nil {
					if root := a.rootObj(n.Rhs[i], derived); root != nil && root != v {
						derived[v] = root
					}
				}
			}
		}
		return true
	})

	// originVars: locals holding a fresh handle, by kind.
	originVars := make(map[types.Object]*kind)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if k := a.baseOrigin(call); k != nil {
						if v := analysis.IdentObj(a.info, n.Lhs[0]); v != nil {
							originVars[v] = k
						}
					}
				}
			}
		case *ast.CallExpr:
			if target, ok := a.baseRelease(n); ok {
				if i := slices.Index(params, a.rootObj(target, derived)); i >= 0 {
					s.releasesParams[i] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					if k := a.baseOrigin(call); k != nil {
						s.returns = k
					}
				}
				if k := originVars[a.rootObj(r, derived)]; k != nil {
					s.returns = k
				}
			}
		}
		return true
	})
	return s
}

// rootObj strips selectors, indexes, stars, and parens down to the base
// identifier's object, chasing derivations.
func (a *lifetime) rootObj(e ast.Expr, derived map[types.Object]types.Object) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			obj := a.info.Uses[x]
			if obj == nil {
				obj = a.info.Defs[x]
			}
			for i := 0; obj != nil && i < 8; i++ {
				next, ok := derived[obj]
				if !ok {
					break
				}
				obj = next
			}
			return obj
		default:
			return nil
		}
	}
}
