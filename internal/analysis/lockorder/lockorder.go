// Package lockorder defines a flow-sensitive analyzer for what a process
// does while it holds a sim.Resource. The simulator's Resource is a
// counting semaphore with no deadlock detection: two processes that acquire
// the same pair of resources in opposite orders hang the simulated cluster
// just like real mutexes hang a real one, and so does a process that parks
// under a hold while the wake-up it waits for needs the held resource — the
// classic shape with a server's ioMu. Only sleeping under a hold is fine:
// sleep wake-ups come from the event heap, not from other processes.
//
// The analyzer tracks, along each path of each function, the ordered list
// of resources currently held (a deferred Release keeps the resource held
// through the body; the CFG's exit chain pops it; each function literal is
// its own process and starts with nothing held). It reports:
//
//   - a blocking primitive — Resource.Acquire or Use, Mailbox.Recv,
//     Cond.Wait, WaitGroup.Wait — called while the list is non-empty;
//   - a resource re-acquired through the same expression while already
//     held, which self-deadlocks at capacity 1 (one finding, not also the
//     blocking one);
//   - every acquired-after edge that lies on a cycle. Every Acquire or Use
//     while holding adds edges from each held resource to the new one; a
//     call to a function with a known summary adds edges to everything it
//     may acquire transitively. Summaries are computed bottom-up over the
//     shared interprocedural call graph (the callgraph layer), so an
//     Acquire buried two helpers deep — in this package or an
//     already-analyzed one — still orders after the locks held at the call
//     site. A site that closes a cycle gets the cycle finding instead of
//     the blocking one.
//
// Resources are named by their canonical key: "Type.field" for a resource
// stored in a struct field (all instances of a type share a key — lock
// order is a per-type discipline), the variable name for package-level and
// local resources. The acquired-after graph accumulates across the
// packages of one run; after each package the analyzer reports every
// not-yet-reported edge that lies on a cycle. A test unit has a graph of
// its own, so a cycle with one half in a test file and the other in another
// package is not seen.
//
// A genuine nested-hold site declares its lock order with a
// "//pvfslint:ok lockorder <order>" directive. Test files are analyzed
// too: a test that parks under a hold hangs like any other process.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/callgraph"
	"pvfsib/internal/analysis/cfg"
	"pvfsib/internal/analysis/dataflow"
)

// Analyzer reports blocking under a held sim.Resource, re-acquisitions, and
// acquisition-order cycles.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "no blocking sim primitive while a sim.Resource is held, and sim.Resource pairs acquired in one consistent order everywhere",
	Run:  run,
}

// parks lists the sim primitives besides a Resource's own Acquire and Use
// that park the calling process until another process acts.
var parks = [...]struct{ typ, method string }{
	{"Mailbox", "Recv"},
	{"Cond", "Wait"},
	{"WaitGroup", "Wait"},
}

// held is one held resource: its canonical key plus the receiver expression
// it was acquired through (for precise re-acquire detection).
type held struct {
	key  string
	expr string
}

// fact is the ordered list of held resources. Facts are immutable: push and
// pop copy.
type fact []held

// edge is one acquired-after observation: to was acquired while from was
// held, first witnessed at pos.
type edge struct {
	from, to string
}

// state carries the analysis across the packages of one driver run: the
// transitive may-acquire summaries feeding call-site edges, the global
// acquired-after graph, and the edges already reported (a cycle closed by a
// later package must not re-report the edges of an earlier one).
type state struct {
	sums     map[string][]string
	edges    map[edge]token.Pos
	reported map[edge]bool
}

const stateKey = "lockorder.state"

func getState(repo *analysis.Repo) *state {
	if st, ok := repo.Get(stateKey).(*state); ok {
		return st
	}
	st := &state{
		sums:     make(map[string][]string),
		edges:    make(map[edge]token.Pos),
		reported: make(map[edge]bool),
	}
	repo.Set(stateKey, st)
	return st
}

// skipPkg exempts the analysis tooling, keeping it out of the shared
// call-graph program (the linter holds no sim.Resources).
func skipPkg(pkg *types.Package) bool {
	p := pkg.Path()
	return strings.Contains(p, "internal/analysis") || strings.Contains(p, "cmd/pvfslint")
}

func run(pass *analysis.Pass) error {
	if skipPkg(pass.Pkg) {
		return nil
	}
	repo := pass.Repo
	if repo == nil {
		repo = analysis.NewRepo()
	}
	a := &lockorder{pass: pass, st: getState(repo)}

	_, g := callgraph.Of(pass)
	callgraph.Fixpoint(g.SCCs, a.st.sums, equalKeys, a.summarize)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					a.checkFunc(n.Body)
				}
				return false
			case *ast.FuncLit:
				a.checkFunc(n.Body)
				return false
			}
			return true
		})
	}
	a.reportCycles()
	return nil
}

type lockorder struct {
	pass *analysis.Pass
	st   *state
	// blocked holds this package's blocking-under-hold findings until the
	// cycle report, which takes any site they share.
	blocked []analysis.Diagnostic
}

// summarize computes one function's transitive may-acquire set: its own
// Acquire/Use keys plus everything its static callees may acquire. Sorted
// for the deterministic equality Fixpoint iterates on.
func (a *lockorder) summarize(n *callgraph.Node, sums map[string][]string) []string {
	seen := make(map[string]bool)
	for _, k := range a.directAcquires(n) {
		seen[k] = true
	}
	for _, c := range n.Calls {
		if c.Static == nil {
			continue
		}
		for _, k := range sums[callgraph.IDOf(c.Static)] {
			seen[k] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalKeys(x, y []string) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// directAcquires is the flow-insensitive base of the summary: the canonical
// keys a function body (literals included — they are attributed to the
// enclosing declaration) acquires itself.
func (a *lockorder) directAcquires(n *callgraph.Node) []string {
	var out []string
	seen := make(map[string]bool)
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method := a.resourceCall(call)
		if recv == nil || (method != "Acquire" && method != "Use") {
			return true
		}
		if k := a.key(recv); k != "" && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
		return true
	})
	return out
}

// checkFunc records the acquisition edges of one function body, then
// recurses into its literals (a goroutine body orders locks like any other
// code).
func (a *lockorder) checkFunc(body *ast.BlockStmt) {
	g := cfg.Build(body, a.pass.TypesInfo)
	prob := &problem{a: a}
	res := dataflow.Fixpoint(g, prob)

	// Record edges and re-acquisitions in a single replay.
	prob.record = true
	res.Replay(prob, func(blk *cfg.Block, n ast.Node, before dataflow.Fact) {})
	prob.record = false

	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			a.checkFunc(lit.Body)
			return false
		}
		return true
	})
}

// resourceCall matches a call to a sim.Resource method and returns the
// receiver expression and method name.
func (a *lockorder) resourceCall(call *ast.CallExpr) (ast.Expr, string) {
	for _, m := range [...]string{"Acquire", "Release", "Use"} {
		if recv, ok := analysis.ReceiverMethod(a.pass.TypesInfo, call, "internal/sim", "Resource", m); ok {
			return recv, m
		}
	}
	return nil, ""
}

// key canonicalizes a resource expression. Field selections become
// "Type.field" so all instances of a type share one ordering discipline;
// plain variables keep their name.
func (a *lockorder) key(recv ast.Expr) string {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if sel, ok := a.pass.TypesInfo.Selections[e]; ok {
			t := sel.Recv()
			for {
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
					continue
				}
				break
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + e.Sel.Name
			}
		}
		return analysis.ExprString(a.pass.Fset, e)
	case *ast.Ident:
		return e.Name
	}
	return analysis.ExprString(a.pass.Fset, recv)
}

// addEdge records the first witness of an acquired-after pair. Self-edges
// are excluded: two instances of the same type legitimately share a key.
func (a *lockorder) addEdge(from, to string, pos token.Pos) {
	if from == to {
		return
	}
	e := edge{from, to}
	if _, ok := a.st.edges[e]; !ok {
		a.st.edges[e] = pos
	}
}

// problem implements dataflow.Problem for one function.
type problem struct {
	a      *lockorder
	record bool
}

func (p *problem) Entry() dataflow.Fact { return fact{} }

func (p *problem) TransferEdge(e cfg.Edge, out dataflow.Fact) dataflow.Fact { return out }

// Join intersects the held lists, preserving the first operand's order: a
// resource counts as held at a merge only when every path holds it.
func (p *problem) Join(x, y dataflow.Fact) dataflow.Fact {
	fx, fy := x.(fact), y.(fact)
	inY := make(map[string]bool, len(fy))
	for _, h := range fy {
		inY[h.key] = true
	}
	out := make(fact, 0, len(fx))
	for _, h := range fx {
		if inY[h.key] {
			out = append(out, h)
		}
	}
	return out
}

func (p *problem) Equal(x, y dataflow.Fact) bool {
	fx, fy := x.(fact), y.(fact)
	if len(fx) != len(fy) {
		return false
	}
	for i := range fx {
		if fx[i].key != fy[i].key {
			return false
		}
	}
	return true
}

func (p *problem) Transfer(n ast.Node, in dataflow.Fact) dataflow.Fact {
	f := in.(fact)
	if _, ok := n.(*ast.DeferStmt); ok {
		// The deferred call replays on the exit chain; the registration
		// point itself does nothing.
		return f
	}
	out := f
	analysis.ForEachCall(cfg.Evaluated(n), func(call *ast.CallExpr) {
		recv, method := p.a.resourceCall(call)
		if recv != nil {
			k := p.a.key(recv)
			if k == "" {
				return
			}
			switch method {
			case "Acquire", "Use":
				expr := analysis.ExprString(p.a.pass.Fset, recv)
				if p.record && len(out) > 0 {
					again := false
					for _, h := range out {
						p.a.addEdge(h.key, k, call.Pos())
						again = again || (h.key == k && h.expr == expr)
					}
					if again {
						p.a.pass.Reportf(call.Pos(), "%s is acquired while already held: a second Acquire on the same resource self-deadlocks when capacity is exhausted", expr)
					} else {
						p.a.block(call.Pos(), "Resource."+method, out)
					}
				}
				if method == "Acquire" {
					out = append(out[:len(out):len(out)], held{key: k, expr: expr})
				}
			case "Release":
				// Pop the innermost matching hold.
				for i := len(out) - 1; i >= 0; i-- {
					if out[i].key == k {
						cp := make(fact, 0, len(out)-1)
						cp = append(cp, out[:i]...)
						cp = append(cp, out[i+1:]...)
						out = cp
						break
					}
				}
			}
			return
		}
		if !p.record || len(out) == 0 {
			return
		}
		for _, b := range parks {
			if _, ok := analysis.ReceiverMethod(p.a.pass.TypesInfo, call, "internal/sim", b.typ, b.method); ok {
				p.a.block(call.Pos(), b.typ+"."+b.method, out)
				return
			}
		}
		// A callee with a known transitive summary: everything it may
		// acquire, however deep, is ordered after everything currently
		// held.
		if fn := dataflow.Callee(p.a.pass.TypesInfo, call); fn != nil {
			for _, k := range p.a.st.sums[callgraph.IDOf(fn)] {
				for _, h := range out {
					p.a.addEdge(h.key, k, call.Pos())
				}
			}
		}
	})
	return out
}

// block records a blocking call made while the resources in hold are held.
func (a *lockorder) block(pos token.Pos, call string, hold fact) {
	var names []string
	for _, h := range hold {
		if !slices.Contains(names, h.expr) {
			names = append(names, h.expr)
		}
	}
	a.blocked = append(a.blocked, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(
		"blocking %s while holding sim.Resource %s; if the wake-up needs the held resource the simulation deadlocks — release first, or declare the lock order with //pvfslint:ok lockorder",
		call, strings.Join(names, ", "))})
}

// reportCycles reports every recorded edge that lies on a cycle and has not
// been reported after an earlier package, rendering the cycle path in the
// message, then this package's blocking findings at sites no cycle took.
// The edge graph is global, so a cycle whose halves live in two packages
// surfaces when the second half arrives.
func (a *lockorder) reportCycles() {
	succs := make(map[string][]string)
	for e := range a.st.edges {
		succs[e.from] = append(succs[e.from], e.to)
	}
	for _, tos := range succs {
		sort.Strings(tos)
	}

	var keys []edge
	for e := range a.st.edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})

	onCycle := make(map[token.Pos]bool)
	for _, e := range keys {
		if a.st.reported[e] {
			continue
		}
		if path := findPath(succs, e.to, e.from); path != nil {
			a.st.reported[e] = true
			onCycle[a.st.edges[e]] = true
			cycle := append([]string{e.from}, path...)
			a.pass.Reportf(a.st.edges[e], "acquiring %s while holding %s creates a lock-order cycle: %s",
				e.to, e.from, strings.Join(cycle, " -> "))
		}
	}
	for _, d := range a.blocked {
		if !onCycle[d.Pos] {
			a.pass.Reportf(d.Pos, "%s", d.Message)
		}
	}
}

// findPath returns a path from src to dst in the edge graph (nil if none),
// exploring successors in sorted order for deterministic messages.
func findPath(succs map[string][]string, src, dst string) []string {
	visited := map[string]bool{src: true}
	var dfs func(cur string, acc []string) []string
	dfs = func(cur string, acc []string) []string {
		if cur == dst {
			return acc
		}
		for _, next := range succs[cur] {
			if visited[next] {
				continue
			}
			visited[next] = true
			if res := dfs(next, append(acc, next)); res != nil {
				return res
			}
		}
		return nil
	}
	return dfs(src, []string{src})
}
