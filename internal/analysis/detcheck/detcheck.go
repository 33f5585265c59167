// Package detcheck defines a taint-style interprocedural analyzer for
// determinism: nondeterminism sources must not reach determinism-critical
// outputs. The repo's core invariant — byte-identical results across runs,
// GOMAXPROCS settings, and fault replays — survives only if no randomized
// order or wall-clock value flows into engine scheduling, simnet message
// ordering, stats, trace output, or bench tables.
//
// Sources: range over a map (iteration order is randomized per run; a
// pointer-keyed map is worse — order follows allocation addresses), wall
// clock (time.Now and friends), the process-global math/rand functions,
// and selects racing two or more communications (goroutine scheduling
// picks the winner).
//
// Sinks, matched by callee package: internal/sim, internal/simnet,
// internal/stats, internal/trace, internal/disk, internal/bench, plus
// fmt.Print*/Fprint*, (*json.Encoder).Encode, and os file methods. A
// function "reaches a sink" when its body calls one directly or
// transitively — computed bottom-up over callgraph SCCs, across the
// packages of one driver run. Interface dispatch resolves via the call
// graph's name-set CHA; a dynamic call with no known targets is
// conservatively treated as sink-reaching.
//
// Sanitizers make a source clean:
//
//   - an order-insensitive map-range body: delete(m, k), counters
//     (n++, n += v), keyed inserts (m2[k] = v), and exists-checks that
//     return constants;
//   - collect-then-sort: keys/values appended to a slice that a stable or
//     total sort normalizes later in the same block (sort.Strings/Ints/
//     Float64s/Stable/SliceStable, slices.Sort*, or a helper named
//     sort*). sort.Slice and sort.Sort are NOT sanitizers: they are
//     unstable, so ties keep random map order — the finding says so;
//   - a *rand.Rand instance (assumed seeded from RunOpts.Seed) instead of
//     the global math/rand functions;
//   - a reasoned suppression: "//pvfslint:ok detcheck <why>" on the source
//     line kills the taint (the reason is audited by okreason).
//
// A function whose unsanitized source value is returned is marked
// "returns nondeterministically ordered data"; sink-reaching callers are
// flagged at the call site unless they sort the result before use.
//
// The analyzer skips the analysis tooling itself (internal/analysis/...,
// cmd/pvfslint), whose map iteration feeds only its own diagnostics.
package detcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/callgraph"
	"pvfsib/internal/analysis/dataflow"
)

// Analyzer flags nondeterminism sources that reach deterministic outputs.
var Analyzer = &analysis.Analyzer{
	Name: "detcheck",
	Doc:  "nondeterminism sources (map iteration, wall clock, global rand, racing selects) must not reach deterministic outputs (sim, simnet, stats, trace, bench)",
	Run:  run,
}

// summary is one function's interprocedural fact, keyed by callgraph ID.
type summary struct {
	// ReachesSink: calling this function can affect determinism-critical
	// output. SinkWhy is the call chain for messages.
	ReachesSink bool
	SinkWhy     string
	// ReturnsNondet: the function returns data derived from an unsanitized
	// source (map-range collect or wall-clock/rand value). NondetWhy names
	// the source.
	ReturnsNondet bool
	NondetWhy     string
}

// sumsKey is the Repo key of the cross-package summary store (the program
// itself is the run-wide shared one, see callgraph.Of).
const sumsKey = "detcheck.sums"

func run(pass *analysis.Pass) error {
	if skipPkg(pass.Pkg) {
		return nil
	}
	repo := pass.Repo
	if repo == nil {
		repo = analysis.NewRepo()
	}
	sums, _ := repo.Get(sumsKey).(map[string]summary)
	if sums == nil {
		sums = make(map[string]summary)
		repo.Set(sumsKey, sums)
	}

	prog, g := callgraph.Of(pass)
	d := &detcheck{pass: pass, prog: prog, facts: make(map[*callgraph.Node]*nodeFacts)}
	callgraph.Fixpoint(g.SCCs, sums,
		func(a, b summary) bool {
			return a.ReachesSink == b.ReachesSink && a.ReturnsNondet == b.ReturnsNondet
		},
		d.summarize)
	for _, n := range g.Nodes {
		d.report(n, sums)
	}
	return nil
}

// skipPkg exempts the analysis tooling: its map iteration feeds its own
// diagnostics, which the drivers sort before printing.
func skipPkg(pkg *types.Package) bool {
	p := pkg.Path()
	return strings.Contains(p, "internal/analysis") || strings.Contains(p, "cmd/pvfslint")
}

type detcheck struct {
	pass  *analysis.Pass
	prog  *callgraph.Program
	facts map[*callgraph.Node]*nodeFacts
}

// source is one unsanitized, unsuppressed nondeterminism source.
type source struct {
	pos    token.Pos
	what   string // "map iteration", "wall-clock time.Now", ...
	advice string // fix guidance appended to the message
	// collect is the slice variable a map range appends into, when the
	// range is a collect loop — used to decide whether the function
	// returns the nondeterministic data.
	collect types.Object
	// call is the source call expression (wall clock / rand), used the
	// same way.
	call *ast.CallExpr
}

// nodeFacts caches one function's local analysis across fixpoint sweeps.
type nodeFacts struct {
	srcs []source
	// returned idents and call expressions inside return statements.
	returnIdents map[types.Object]bool
	returnCalls  map[*ast.CallExpr]bool
}

// summarize computes one function's summary given its callees' (callgraph
// Fixpoint re-runs it within an SCC until nothing changes).
func (d *detcheck) summarize(n *callgraph.Node, sums map[string]summary) summary {
	var s summary
	for _, c := range n.Calls {
		if !s.ReachesSink {
			if why, ok := sinkCall(c); ok {
				s.ReachesSink, s.SinkWhy = true, why
			}
		}
		targets := d.prog.TargetsOf(c)
		if c.Dynamic && len(targets) == 0 && !s.ReachesSink {
			s.ReachesSink = true
			s.SinkWhy = "makes a dynamic call with unknown targets"
		}
		for _, id := range targets {
			t := sums[id]
			if t.ReachesSink && !s.ReachesSink {
				s.ReachesSink = true
				s.SinkWhy = chain(shortID(id), t.SinkWhy)
			}
		}
	}
	f := d.nodeFacts(n)
	// Returned taint: a source value that leaves through the results, or a
	// callee's nondeterministic result returned directly.
	for _, src := range f.srcs {
		if (src.collect != nil && f.returnIdents[src.collect]) ||
			(src.call != nil && f.returnCalls[src.call]) {
			s.ReturnsNondet = true
			s.NondetWhy = src.what + " at " + d.shortPos(src.pos)
			break
		}
	}
	if !s.ReturnsNondet {
		for _, c := range n.Calls {
			call, ok := c.Site.(*ast.CallExpr)
			if !ok || !f.returnCalls[call] {
				continue
			}
			for _, id := range d.prog.TargetsOf(c) {
				if t := sums[id]; t.ReturnsNondet {
					s.ReturnsNondet = true
					s.NondetWhy = chain(shortID(id), t.NondetWhy)
					break
				}
			}
			if s.ReturnsNondet {
				break
			}
		}
	}
	return s
}

// report emits findings for one function once summaries are final. Sources
// are only reported in sink-reaching functions: a nondeterministic order
// that provably cannot affect output needs no justification.
func (d *detcheck) report(n *callgraph.Node, sums map[string]summary) {
	s := sums[n.ID]
	if !s.ReachesSink {
		return
	}
	for _, src := range d.nodeFacts(n).srcs {
		d.pass.Reportf(src.pos, "%s in a function that reaches deterministic output (%s)%s", src.what, s.SinkWhy, src.advice)
	}
	// Calls returning nondeterministically ordered data, unless the result
	// is sorted later in the same block.
	walkBlocks(n.Decl.Body, func(stmts []ast.Stmt) {
		for i, st := range stmts {
			ast.Inspect(st, func(m ast.Node) bool {
				if _, ok := m.(*ast.BlockStmt); ok {
					return false // inner lists get their own walkBlocks visit
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := dataflow.Callee(d.pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				id := callgraph.IDOf(fn)
				t := sums[id]
				if !t.ReturnsNondet {
					return true
				}
				if as, ok := st.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && len(as.Lhs) == 1 &&
					ast.Unparen(as.Rhs[0]) == call {
					if obj := analysis.IdentObj(d.pass.TypesInfo, as.Lhs[0]); obj != nil {
						if stable, _ := sortScan(d.pass.TypesInfo, stmts[i+1:], obj); stable {
							return true
						}
					}
				}
				d.pass.Reportf(call.Pos(), "call to %s returns nondeterministically ordered data (%s): sort or normalize the result before it reaches deterministic output", shortID(id), t.NondetWhy)
				return true
			})
		}
	})
}

// nodeFacts computes (once) the function's sources and return sets.
func (d *detcheck) nodeFacts(n *callgraph.Node) *nodeFacts {
	if f, ok := d.facts[n]; ok {
		return f
	}
	f := &nodeFacts{
		returnIdents: make(map[types.Object]bool),
		returnCalls:  make(map[*ast.CallExpr]bool),
	}
	body := n.Decl.Body
	info := d.pass.TypesInfo

	// Call and select sources, plus return sets: one plain walk.
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				ast.Inspect(r, func(x ast.Node) bool {
					switch x := x.(type) {
					case *ast.Ident:
						if obj := info.Uses[x]; obj != nil {
							f.returnIdents[obj] = true
						}
					case *ast.CallExpr:
						f.returnCalls[x] = true
					}
					return true
				})
			}
		case *ast.SelectStmt:
			ready := 0
			for _, cl := range m.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					ready++
				}
			}
			if ready >= 2 {
				f.srcs = append(f.srcs, source{
					pos:    m.Pos(),
					what:   fmt.Sprintf("select racing %d communications", ready),
					advice: ": the winner depends on goroutine scheduling",
				})
			}
		case *ast.CallExpr:
			if src, ok := callSource(info, m); ok {
				f.srcs = append(f.srcs, src)
			}
		}
		return true
	})

	// Map-range sources need block context for the collect-then-sort
	// sanitizer: the rest of the enclosing statement list.
	walkBlocks(body, func(stmts []ast.Stmt) {
		for i, st := range stmts {
			rs, ok := st.(*ast.RangeStmt)
			if !ok {
				continue
			}
			if src, ok := d.mapRangeSource(rs, stmts[i+1:]); ok {
				f.srcs = append(f.srcs, src)
			}
		}
	})

	// Suppressed sources are audited exceptions: they neither report nor
	// taint (a directive on the source kills the whole chain).
	kept := f.srcs[:0]
	for _, src := range f.srcs {
		if !d.pass.Suppressed(src.pos) {
			kept = append(kept, src)
		}
	}
	f.srcs = kept
	d.facts[n] = f
	return f
}

// mapRangeSource classifies one range statement: not a map, sanitized, or
// a source (with the pointer-key and unstable-sort message variants).
func (d *detcheck) mapRangeSource(rs *ast.RangeStmt, rest []ast.Stmt) (source, bool) {
	tv, ok := d.pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return source{}, false
	}
	m, ok := tv.Type.Underlying().(*types.Map)
	if !ok {
		return source{}, false
	}
	info := d.pass.TypesInfo
	if orderInsensitiveStmts(info, rs.Body.List, rangeVars(info, rs)) {
		return source{}, false
	}
	collected := collectTargets(info, rs.Body)
	if len(collected) > 0 {
		stable, unstable := sortScan(info, rest, collected...)
		if stable {
			return source{}, false
		}
		if unstable != nil {
			return source{
				pos:     unstable.Pos(),
				what:    "map-collected data sorted with " + sortName(info, unstable),
				advice:  ": the sort is unstable, so ties keep random map order — use sort.SliceStable or sort plain keys",
				collect: collected[0],
			}, true
		}
	}
	src := source{
		pos:    rs.Pos(),
		what:   "map iteration",
		advice: ": iteration order is randomized — sort the keys first (sort.Strings/sort.SliceStable) or make the loop body order-insensitive",
	}
	if _, ptr := m.Key().Underlying().(*types.Pointer); ptr {
		src.what = "iteration over a pointer-keyed map"
		src.advice = ": order follows allocation addresses and cannot be sorted into shape — key the map by a stable ID"
	}
	if len(collected) > 0 {
		src.collect = collected[0]
	}
	return src, true
}

// callSource classifies wall-clock and global-rand calls.
func callSource(info *types.Info, call *ast.CallExpr) (source, bool) {
	fn := dataflow.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return source{}, false
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until", "Sleep", "After", "Tick", "NewTicker", "NewTimer":
			return source{
				pos:    call.Pos(),
				what:   "wall-clock time." + fn.Name(),
				advice: ": virtual time (sim.Proc.Now) is the deterministic clock; audit intentional real-time uses with //pvfslint:ok detcheck <why>",
				call:   call,
			}, true
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the process-global, racy
		// source; methods on a *rand.Rand instance are assumed seeded from
		// RunOpts.Seed. Constructors are deterministic.
		if fn.Type().(*types.Signature).Recv() != nil || fn.Name() == "New" || strings.HasPrefix(fn.Name(), "NewSource") {
			return source{}, false
		}
		return source{
			pos:    call.Pos(),
			what:   "global math/rand." + fn.Name(),
			advice: ": process-global and unseeded — use a *rand.Rand seeded from RunOpts.Seed",
			call:   call,
		}, true
	}
	return source{}, false
}

// sinkCall reports whether a call edge lands in a determinism-critical
// package or output routine, with a short description.
var sinkPkgs = []string{
	"internal/sim", "internal/simnet", "internal/stats",
	"internal/trace", "internal/disk", "internal/bench",
}

func sinkCall(c callgraph.Call) (string, bool) {
	fn := c.Static
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	for _, suf := range sinkPkgs {
		if analysis.PathHasSuffix(path, suf) {
			return "calls " + shortID(callgraph.IDOf(fn)), true
		}
	}
	switch {
	case path == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")):
		return "calls fmt." + fn.Name(), true
	case path == "encoding/json" && fn.Name() == "Encode":
		return "encodes JSON output", true
	case path == "os" && fn.Type().(*types.Signature).Recv() != nil:
		return "writes through os." + fn.Name(), true
	}
	return "", false
}

// ---- sanitizer recognizers ----

// rangeVars collects the objects bound by the range clause.
func rangeVars(info *types.Info, rs *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if obj := analysis.IdentObj(info, e); obj != nil {
			out[obj] = true
		}
	}
	return out
}

// orderInsensitiveStmts reports whether every statement commutes across
// iterations: deletes, counters, keyed inserts, continues, and
// exists-checks returning constants.
func orderInsensitiveStmts(info *types.Info, stmts []ast.Stmt, rvars map[types.Object]bool) bool {
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(st.X).(*ast.CallExpr)
			if !ok || !isBuiltin(info, call, "delete") {
				return false
			}
		case *ast.IncDecStmt:
			// n++ / n-- commute.
		case *ast.AssignStmt:
			switch st.Tok {
			case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
				// Compound updates with commutative, associative operators.
			case token.ASSIGN:
				// Keyed insert m2[k] = v: distinct keys per iteration, so
				// order cannot matter. Anything else may overwrite.
				for _, lhs := range st.Lhs {
					ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
					if !ok || !mentionsVar(info, ix.Index, rvars) {
						return false
					}
				}
			default:
				return false
			}
		case *ast.IfStmt:
			if st.Init != nil || st.Else != nil {
				return false
			}
			if !isConstReturn(st.Body) && !orderInsensitiveStmts(info, st.Body.List, rvars) {
				return false
			}
		case *ast.BranchStmt:
			if st.Tok != token.CONTINUE {
				return false
			}
		case *ast.ReturnStmt:
			if !constResults(st) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isConstReturn recognizes the exists-check body: a single return of
// constants ("if mr.Covers(e) { return true }").
func isConstReturn(b *ast.BlockStmt) bool {
	if len(b.List) != 1 {
		return false
	}
	ret, ok := b.List[0].(*ast.ReturnStmt)
	return ok && constResults(ret)
}

func constResults(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		switch r := ast.Unparen(r).(type) {
		case *ast.BasicLit:
		case *ast.Ident:
			if r.Name != "true" && r.Name != "false" && r.Name != "nil" {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// collectTargets returns the slice variables the body appends into
// (x = append(x, ...)): candidates for the collect-then-sort sanitizer.
func collectTargets(info *types.Info, body *ast.BlockStmt) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "append") {
			return true
		}
		if obj := analysis.IdentObj(info, as.Lhs[0]); obj != nil && !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

// sortScan looks through the statements after a collect loop (or an
// assignment) for a sort of one of the collected objects. It returns
// whether a sanitizing (stable or key) sort was found, and the first
// unstable sort call (sort.Slice / sort.Sort) on the data otherwise.
func sortScan(info *types.Info, rest []ast.Stmt, objs ...types.Object) (bool, *ast.CallExpr) {
	want := make(map[types.Object]bool, len(objs))
	for _, o := range objs {
		want[o] = true
	}
	var unstable *ast.CallExpr
	stable := false
	for _, st := range rest {
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			kind := sortKind(info, call)
			if kind == sortNone {
				return true
			}
			if obj := sortArgObj(info, call.Args[0]); obj == nil || !want[obj] {
				return true
			}
			switch kind {
			case sortStable:
				stable = true
			case sortUnstable:
				if unstable == nil {
					unstable = call
				}
			}
			return true
		})
		if stable {
			return true, nil
		}
	}
	return false, unstable
}

type sortClass int

const (
	sortNone sortClass = iota
	sortStable
	sortUnstable
)

// sortKind classifies a call as a sanitizing sort, an unstable sort, or
// neither. Key sorts (sort.Strings/Ints/Float64s, slices.Sort*) and the
// stable variants sanitize; sort.Slice and sort.Sort are unstable. An
// in-program helper named sort*/Sort* (the sortInt64s idiom) is trusted.
func sortKind(info *types.Info, call *ast.CallExpr) sortClass {
	fn := dataflow.Callee(info, call)
	if fn == nil {
		return sortNone
	}
	name := fn.Name()
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "sort":
			switch name {
			case "Strings", "Ints", "Float64s", "Stable", "SliceStable":
				return sortStable
			case "Slice", "Sort":
				return sortUnstable
			}
			return sortNone
		case "slices":
			if strings.HasPrefix(name, "Sort") {
				return sortStable
			}
			return sortNone
		}
	}
	if strings.HasPrefix(name, "sort") || strings.HasPrefix(name, "Sort") {
		return sortStable
	}
	return sortNone
}

// sortArgObj resolves the sorted value: a plain identifier, possibly
// wrapped in one conversion (sort.Sort(byName(ks))).
func sortArgObj(info *types.Info, arg ast.Expr) types.Object {
	arg = ast.Unparen(arg)
	if call, ok := arg.(*ast.CallExpr); ok && len(call.Args) == 1 {
		arg = ast.Unparen(call.Args[0])
	}
	return analysis.IdentObj(info, arg)
}

func sortName(info *types.Info, call *ast.CallExpr) string {
	fn := dataflow.Callee(info, call)
	if fn == nil {
		return "an unstable sort"
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
		return "sort." + fn.Name()
	}
	return fn.Name()
}

// ---- small helpers ----

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// mentionsVar reports whether e reads one of the given objects.
func mentionsVar(info *types.Info, e ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && vars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// walkBlocks visits every statement list in body exactly once: nested
// blocks, case bodies, comm bodies, and function-literal bodies.
func walkBlocks(body *ast.BlockStmt, visit func(stmts []ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			visit(n.List)
		case *ast.CaseClause:
			visit(n.Body)
		case *ast.CommClause:
			visit(n.Body)
		}
		return true
	})
}

// shortID trims the module prefix off a callgraph ID for messages:
// "(pvfsib/internal/sim.Engine).Go" becomes "(sim.Engine).Go".
func shortID(id string) string {
	trim := func(p string) string {
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	if strings.HasPrefix(id, "(") {
		if j := strings.Index(id, ")"); j > 0 {
			return "(" + trim(id[1:j]) + id[j:]
		}
	}
	return trim(id)
}

// chain prefixes one hop onto a callee's why-string, keeping it short.
func chain(name, why string) string {
	s := "calls " + name
	if tail := strings.TrimPrefix(why, "calls "); tail != "" && tail != why {
		s += " → " + tail
	} else if why != "" {
		s += " → " + why
	}
	if len(s) > 120 {
		s = strings.ToValidUTF8(s[:117], "") + "..."
	}
	return s
}

func (d *detcheck) shortPos(p token.Pos) string {
	pos := d.pass.Fset.Position(p)
	name := pos.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pos.Line)
}
