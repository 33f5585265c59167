// Package callgraph is the interprocedural layer of the pvfslint framework:
// a repo-wide call graph built incrementally, one type-checked package at a
// time, in the dependency-first order the loader guarantees.
//
// The graph replaces the one-level dataflow.Summarize pattern with true
// bottom-up summary computation: AddPackage returns the new package's
// functions grouped into strongly connected components in callee-first
// order, and Fixpoint iterates a summary function over each SCC until it
// converges, with every callee's summary — including callees in previously
// added packages — already available. Go forbids import cycles, so an SCC
// never spans packages and the per-package bottom-up order is globally
// bottom-up.
//
// Identity is by name, not by pointer: the loader type-checks each package
// from source but its dependencies from export data, so the same function is
// represented by different *types.Func objects in different packages' type
// universes. Nodes are therefore keyed by a stable string ID ("pkg.F" or
// "(pkg.T).M") that both universes agree on.
//
// Call edges cover static calls (package functions and concrete methods),
// method values (taking x.M without calling it is an edge — the value may
// be invoked later), and interface dispatch. Dispatch is resolved by
// class-hierarchy analysis over the packages added so far, matching
// implementations *by method-name set*: cross-universe types.Implements is
// unreliable for the same reason pointer identity is, so a concrete type
// is considered an implementation when its method set contains every method
// name of the interface. For the repo's structural interfaces (distinctive
// method names, few implementors) this is precise in practice; consumers
// treat a dynamic call with no known targets conservatively.
package callgraph

import (
	"go/ast"
	"go/types"
)

// IDOf returns the stable, universe-independent identity of a function:
// "pkg.F" for package functions and "(pkg.T).M" for methods. Pointer
// receivers fold into the value type, and generic instantiations fold into
// their origin, so every view of one declaration maps to one ID.
func IDOf(fn *types.Func) string {
	fn = fn.Origin()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkgPath + "." + fn.Name()
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	name := "?"
	if n, ok := t.(*types.Named); ok {
		name = n.Obj().Name()
	}
	return "(" + pkgPath + "." + name + ")." + fn.Name()
}

// Node is one function with a body somewhere in the program.
type Node struct {
	ID    string
	Func  *types.Func
	Decl  *ast.FuncDecl
	Pkg   *types.Package
	Info  *types.Info
	Calls []Call
}

// Call is one outgoing edge: a call expression, a method value, or a
// function value reference inside the node's body (function literals are
// attributed to the declaration that encloses them).
type Call struct {
	// Site is the *ast.CallExpr, or the *ast.SelectorExpr / *ast.Ident of
	// a function or method value taken without being called.
	Site ast.Node
	// Static is the resolved callee for direct calls and method values,
	// including callees outside the program (stdlib, export-data-only
	// packages). Nil for interface dispatch and func-typed value calls.
	Static *types.Func
	// Dynamic marks interface dispatch (Iface/Method set) and calls of
	// func-typed values (Iface nil): no single static callee exists.
	Dynamic bool
	// Iface and Method describe an interface dispatch site.
	Iface  *types.Interface
	Method string
}

// PackageGraph is one added package's slice of the program.
type PackageGraph struct {
	// Nodes lists the package's functions in source order.
	Nodes []*Node
	// SCCs groups Nodes into strongly connected components of the
	// package-local call graph, callees before callers — the order
	// bottom-up summary computation wants.
	SCCs [][]*Node
}

// typeEntry records one concrete named type for class-hierarchy analysis.
type typeEntry struct {
	// methods maps method name to the declaring method's ID (promoted
	// methods resolve to the embedded type's declaration).
	methods map[string]string
}

// Program accumulates packages into one call graph.
type Program struct {
	nodes map[string]*Node
	// concrete types in registration order, for deterministic CHA results.
	typeOrder []*typeEntry
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{nodes: make(map[string]*Node)}
}

// Node returns the node with the given ID, or nil if the program has not
// seen its body.
func (p *Program) Node(id string) *Node { return p.nodes[id] }

// AddPackage builds the package's nodes and edges, registers its concrete
// types for dispatch resolution, and returns the package view with its
// functions in bottom-up SCC order. Packages must be added dependencies
// first for cross-package summaries to be complete.
func (p *Program) AddPackage(files []*ast.File, pkg *types.Package, info *types.Info) *PackageGraph {
	p.registerTypes(pkg)
	g := &PackageGraph{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{ID: IDOf(obj), Func: obj, Decl: fd, Pkg: pkg, Info: info}
			n.Calls = collectCalls(fd, info)
			p.nodes[n.ID] = n
			g.Nodes = append(g.Nodes, n)
		}
	}
	g.SCCs = p.sccs(g.Nodes)
	return g
}

// registerTypes records every package-scope concrete named type's method
// set. Scope.Names is sorted, so registration order — and with it CHA
// result order — is deterministic.
func (p *Program) registerTypes(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		if ms.Len() == 0 {
			continue
		}
		ent := &typeEntry{methods: make(map[string]string, ms.Len())}
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok {
				ent.methods[fn.Name()] = IDOf(fn)
			}
		}
		p.typeOrder = append(p.typeOrder, ent)
	}
}

// collectCalls walks one declaration's body (descending into function
// literals) and records every outgoing edge.
func collectCalls(fd *ast.FuncDecl, info *types.Info) []Call {
	var calls []Call
	// funs marks expressions in call-operator position, so the value-edge
	// pass below does not double-count the callee of a direct call.
	funs := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		// Unwrap explicit generic instantiation: f[T](x).
		switch ix := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(ix.X)
		case *ast.IndexListExpr:
			fun = ast.Unparen(ix.X)
		}
		funs[fun] = true
		switch fun := fun.(type) {
		case *ast.Ident:
			switch obj := info.Uses[fun].(type) {
			case *types.Func:
				calls = append(calls, Call{Site: call, Static: obj})
			case *types.Var:
				// Calling a func-typed variable: dynamic, no interface.
				calls = append(calls, Call{Site: call, Dynamic: true})
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok {
				switch sel.Kind() {
				case types.MethodVal:
					recv := sel.Recv()
					if types.IsInterface(recv) {
						iface, _ := recv.Underlying().(*types.Interface)
						calls = append(calls, Call{Site: call, Dynamic: true, Iface: iface, Method: fun.Sel.Name})
					} else if fn, ok := sel.Obj().(*types.Func); ok {
						calls = append(calls, Call{Site: call, Static: fn})
					}
				case types.FieldVal:
					// Calling a func-typed field.
					calls = append(calls, Call{Site: call, Dynamic: true})
				}
			} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				// Package-qualified call: pkg.F().
				calls = append(calls, Call{Site: call, Static: fn})
			}
		}
		return true
	})
	// Function and method values taken without being called: the value may
	// run later, so it is an edge.
	selIdents := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selIdents[sel.Sel] = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if funs[e] {
				return true
			}
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				recv := sel.Recv()
				if types.IsInterface(recv) {
					iface, _ := recv.Underlying().(*types.Interface)
					calls = append(calls, Call{Site: e, Dynamic: true, Iface: iface, Method: e.Sel.Name})
				} else if fn, ok := sel.Obj().(*types.Func); ok {
					calls = append(calls, Call{Site: e, Static: fn})
				}
				return false
			}
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok && !funs[e] {
				calls = append(calls, Call{Site: e, Static: fn})
				return false
			}
		case *ast.Ident:
			if funs[e] || selIdents[e] {
				return true
			}
			// Bare function value: eng.Go("x", helper) captures helper.
			// Selector .Sel idents are excluded above — their edge, if any,
			// is the enclosing selector's.
			if fn, ok := info.Uses[e].(*types.Func); ok {
				calls = append(calls, Call{Site: e, Static: fn})
			}
		}
		return true
	})
	return calls
}

// TargetsOf resolves one call to the IDs of its possible in-program
// callees, in deterministic order. Static calls yield the callee's ID
// whether or not its body is in the program (consumers check Node); dynamic
// interface dispatch yields every registered implementation's method via
// name-set CHA; func-value calls yield nothing.
func (p *Program) TargetsOf(c Call) []string {
	if c.Static != nil {
		return []string{IDOf(c.Static)}
	}
	if c.Iface == nil {
		return nil
	}
	want := make([]string, 0, c.Iface.NumMethods())
	for i := 0; i < c.Iface.NumMethods(); i++ {
		want = append(want, c.Iface.Method(i).Name())
	}
	var out []string
	seen := make(map[string]bool)
	for _, ent := range p.typeOrder {
		implements := true
		for _, m := range want {
			if _, ok := ent.methods[m]; !ok {
				implements = false
				break
			}
		}
		if !implements {
			continue
		}
		if id, ok := ent.methods[c.Method]; ok && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// sccs runs Tarjan's algorithm over the given nodes with edges restricted
// to targets within the same node set (cross-package callees are leaves by
// construction) and returns the components callees-first.
func (p *Program) sccs(nodes []*Node) [][]*Node {
	local := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		local[n.ID] = n
	}
	type vstate struct {
		index, lowlink int
		onStack        bool
	}
	states := make(map[*Node]*vstate, len(nodes))
	var stack []*Node
	var sccs [][]*Node
	next := 0
	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		st := &vstate{index: next, lowlink: next}
		next++
		states[n] = st
		stack = append(stack, n)
		st.onStack = true
		for _, c := range n.Calls {
			for _, id := range p.TargetsOf(c) {
				m, ok := local[id]
				if !ok {
					continue
				}
				ms, seen := states[m]
				if !seen {
					strongconnect(m)
					if states[m].lowlink < st.lowlink {
						st.lowlink = states[m].lowlink
					}
				} else if ms.onStack && ms.index < st.lowlink {
					st.lowlink = ms.index
				}
			}
		}
		if st.lowlink == st.index {
			var comp []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				states[m].onStack = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, n := range nodes {
		if _, seen := states[n]; !seen {
			strongconnect(n)
		}
	}
	return sccs
}

// maxFixpointIters bounds summary iteration inside one SCC. Summary
// lattices are small, so a correct compute function converges in a handful
// of sweeps; the bound turns a non-monotone compute into a partial result
// instead of a hang.
const maxFixpointIters = 32

// Fixpoint computes summaries bottom-up: for each SCC in order, compute is
// re-applied to the component's nodes until no summary changes. compute
// reads callee summaries from sums (already final for lower SCCs and
// previously added packages, last-iteration values within the SCC) and must
// be monotone for the fixpoint to be exact.
func Fixpoint[S any](sccs [][]*Node, sums map[string]S, equal func(a, b S) bool, compute func(n *Node, sums map[string]S) S) {
	for _, scc := range sccs {
		for iter := 0; iter < maxFixpointIters; iter++ {
			changed := false
			for _, n := range scc {
				s := compute(n, sums)
				old, ok := sums[n.ID]
				if !ok || !equal(old, s) {
					sums[n.ID] = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}
