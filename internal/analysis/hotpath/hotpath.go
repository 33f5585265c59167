// Package hotpath defines a summary-based interprocedural analyzer for the
// simulator's performance-critical call cones. The paper's contribution is a
// lean noncontiguous-I/O fast path — zero-copy RDMA gather/scatter instead
// of pack/unpack — and the repo's engine work made the event loop
// allocation-free; this analyzer makes both properties static: they are
// proved over the whole call graph on every lint run instead of sampled by
// whichever configurations the benchmarks happen to cover.
//
// A function opts in as a hot-path root with a directive in its doc comment:
//
//	//pvfslint:hotpath            (budget every effect class)
//	//pvfslint:hotpath alloc,syscall  (blocking is this root's job — parking
//	                                   in virtual time — so only allocation
//	                                   and wall-clock effects are budgeted)
//
// For every function the analyzer computes, bottom-up over callgraph SCCs
// via the generic Fixpoint driver, a may-effect summary:
//
//   - alloc: make/new/append, composite literals of slice/map type, &T{},
//     closures and go statements, map inserts, string concatenation,
//     conversions that copy, arguments boxed into interface parameters,
//     variadic argument slices, bound method values, and allocating stdlib
//     intrinsics (fmt.Sprintf, errors.New, ...);
//   - block: channel operations (send, receive, select, range), blocking
//     stdlib intrinsics (sync Lock/Wait, time.Sleep) and coroutine switches
//     (a call of a func value obtained from iter.Pull) — the sim package's
//     own wait primitives need no special cases, the switch they suspend
//     with propagates up through their bodies;
//   - syscall: wall-clock reads (time.Now and friends) and os/syscall
//     calls — the effects the engine-sharding roadmap item must prove
//     absent under the partitioned event loop;
//   - dynamic: a call site whose callees the analysis cannot enumerate
//     (func-typed values, interface dispatch that neither per-callsite
//     devirtualization nor CHA pins down locally). Dynamic sites are
//     budgeted regardless of the root's class list: they could hide any
//     effect.
//
// Interface dispatch is devirtualized per call site when the receiver is a
// local variable with exactly one assignment of concrete type; otherwise
// the dispatch is budgeted as dynamic and, additionally, every CHA
// implementor's summary propagates (the implementors the run has seen: a
// test unit sees its own package's only, which is why the dynamic site —
// computable identically either way — is what gets audited, not the CHA
// resolution).
//
// An effect is audited once, where it happens: a directive
//
//	//pvfslint:ok hotpath <reason>
//
// on the effect's line or the line above it — the suite's one suppression
// mechanism — audits that effect for every root, present and future, that
// reaches it. In a function's doc comment the directive covers the whole
// body, for functions that are cold or blocking as a whole (error
// formatting, a deadlock report, a barrier). Building the arguments of a
// call that never returns (panic, sim.Failf) needs no audit: it is not a
// hot-path effect. The audits are a ratchet: an unaudited effect reachable
// from a root fails the suite with the root→callee chain and the effect's
// own file:line, where the directive would go; a directive without a reason
// fails okreason; a directive that audits nothing — no effect on its line,
// or (detected in the Finish hook of whole-module runs) an effect no root
// reaches any more — is a stale audit and fails too.
//
// hotpath also subsumes the retired engescape analyzer: no *sim.Proc or
// *sim.Engine may be captured by a real goroutine or stored in a
// package-level variable (see escape.go). Those checks are unconditional —
// repo-wide, not root-scoped — and are suppressed by the same directive.
//
// Test files and the analysis tooling itself (internal/analysis/...,
// cmd/pvfslint) are skipped.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/callgraph"
)

// analyzerName also names the directive: //pvfslint:ok hotpath.
const analyzerName = "hotpath"

// Analyzer enforces the allocation/blocking/wall-clock budget of declared
// hot-path roots.
var Analyzer = &analysis.Analyzer{
	Name:   analyzerName,
	Doc:    "effects reachable from //pvfslint:hotpath roots (allocation, blocking, syscall/wall-clock, dynamic dispatch) must be audited at the site with //pvfslint:ok hotpath <reason>; sim engine handles must not escape to goroutines or globals",
	Run:    run,
	Finish: finish,
}

// Kind classifies one effect.
type Kind uint8

const (
	KindAlloc Kind = iota
	KindBlock
	KindSyscall
	KindDynamic
)

func (k Kind) String() string {
	switch k {
	case KindAlloc:
		return "alloc"
	case KindBlock:
		return "block"
	case KindSyscall:
		return "syscall"
	case KindDynamic:
		return "dynamic"
	}
	return "?"
}

// noun renders the kind for diagnostics.
func (k Kind) noun() string {
	switch k {
	case KindAlloc:
		return "allocation"
	case KindBlock:
		return "blocking effect"
	case KindSyscall:
		return "syscall/wall-clock effect"
	case KindDynamic:
		return "dynamic call"
	}
	return "effect"
}

// class bits for the directive's optional filter list.
const (
	classAlloc uint8 = 1 << iota
	classBlock
	classSyscall
	classAll = classAlloc | classBlock | classSyscall
)

// effKey identifies one effect in a summary. An unaudited effect is keyed by
// its kind, the function whose body contains the site, and a short
// description — sites of one function that read the same fold into one
// finding. An audited effect is keyed by its kind and its directive alone:
// all a root needs to know is that it reached the audit.
type effKey struct {
	kind  Kind
	fn    string // callgraph ID of the containing function
	what  string
	audit token.Pos // the covering //pvfslint:ok hotpath directive, if any
}

// witness carries one deterministic evidence trail for an effect key.
type witness struct {
	// pos is the effect site itself (possibly in another package).
	pos token.Pos
	// site is the first-hop call site inside the summarized function — the
	// position diagnostics anchor to, always in the reporting package.
	site token.Pos
	// chain lists callee IDs from the summarized function down to (and
	// including) the containing function; empty for own-body effects.
	chain []string
}

// effSummary is one function's may-effect set. It only grows across fixpoint
// sweeps (own effects are fixed, callee summaries are monotone), so summary
// equality is a length compare.
type effSummary map[effKey]witness

// stateKey is the Repo key of the run-wide hotpath state.
const stateKey = "hotpath.state"

// state is the cross-package accumulator for one driver run.
type state struct {
	sums map[string]effSummary
	// audits holds every directive that covers an effect; reached, those
	// among them some root arrived at with the effect's class budgeted.
	audits  map[token.Pos]bool
	reached map[token.Pos]bool
}

func getState(repo *analysis.Repo) *state {
	st, _ := repo.Get(stateKey).(*state)
	if st == nil {
		st = &state{
			sums:    make(map[string]effSummary),
			audits:  make(map[token.Pos]bool),
			reached: make(map[token.Pos]bool),
		}
		repo.Set(stateKey, st)
	}
	return st
}

func run(pass *analysis.Pass) error {
	// The escape checks are unconditional and repo-wide: a leaked engine
	// handle breaks cell independence whether or not a root reaches it.
	checkEscapes(pass)

	if skipPkg(pass.Pkg) {
		return nil
	}
	repo := pass.Repo
	if repo == nil {
		repo = analysis.NewRepo()
	}
	st := getState(repo)

	prog, g := callgraph.Of(pass)
	h := &hot{pass: pass, prog: prog, st: st, facts: make(map[*callgraph.Node][]localEffect), coro: coroHandles(pass)}

	// Summarize the whole package before looking at its roots, so a root
	// that is also reachable from another root is still summarized normally.
	callgraph.Fixpoint(g.SCCs, st.sums,
		func(a, b effSummary) bool { return len(a) == len(b) },
		h.summarize)

	for _, n := range g.Nodes {
		rest, ok := rootDirective(n.Decl)
		if !ok {
			continue
		}
		classes, err := parseClasses(rest)
		if err != nil {
			pass.Reportf(n.Decl.Pos(), "bad //pvfslint:hotpath directive on %s: %v", shortID(n.ID), err)
			continue
		}
		s := st.sums[n.ID]
		var keys []effKey
		for k := range s {
			switch {
			case k.kind != KindDynamic && classes&classBit(k.kind) == 0:
			case k.audit.IsValid():
				st.reached[k.audit] = true
			default:
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			if a.fn != b.fn {
				return a.fn < b.fn
			}
			return a.what < b.what
		})
		for _, k := range keys {
			w := s[k]
			via := ""
			if len(w.chain) > 0 {
				parts := make([]string, len(w.chain))
				for i, id := range w.chain {
					parts[i] = shortID(id)
				}
				via = " (via " + strings.Join(parts, " → ") + ")"
			}
			at := pass.Fset.Position(w.pos)
			// Reported past the suppression filter: the one place to
			// silence an effect is the effect, not a call site above it.
			pass.Report(analysis.Diagnostic{Pos: w.site, Analyzer: analyzerName, Message: fmt.Sprintf(
				"hot path %s: %s %q in %s at %s:%d%s — unaudited: eliminate it, or audit it there with //pvfslint:ok hotpath <reason>",
				shortID(n.ID), k.kind.noun(), k.what, shortID(k.fn), filepath.Base(at.Filename), at.Line, via)})
		}
	}

	// Every effect and escape of the package has consulted its directive by
	// now; one nothing consulted audits nothing.
	for _, d := range pass.Unused() {
		pass.Report(analysis.Diagnostic{Pos: d, Analyzer: analyzerName,
			Message: "stale audit: //pvfslint:ok hotpath covers no hot-path effect here — remove the directive"})
	}
	return nil
}

// finish runs once per whole-module driver run and reports the audits no
// root reached. It needs every root's summary, so it cannot run per package;
// a test unit's Repo never gets here, and a run over part of the module
// proves nothing about roots it never summarized.
func finish(repo *analysis.Repo, report func(analysis.Diagnostic)) error {
	st, _ := repo.Get(stateKey).(*state)
	if st == nil {
		return nil
	}
	for d := range st.audits {
		if !st.reached[d] {
			report(analysis.Diagnostic{Pos: d, Analyzer: analyzerName,
				Message: "stale audit: no //pvfslint:hotpath root that budgets this effect reaches it any more — remove the directive"})
		}
	}
	return nil
}

// skipPkg exempts the analysis tooling: the linter's own allocations feed
// its own diagnostics, not the simulator's hot path.
func skipPkg(pkg *types.Package) bool {
	p := pkg.Path()
	return strings.Contains(p, "internal/analysis") || strings.Contains(p, "cmd/pvfslint")
}

// rootDirective extracts the argument text of a //pvfslint:hotpath directive
// from a declaration's doc comment.
func rootDirective(fd *ast.FuncDecl) (string, bool) {
	if fd.Doc == nil {
		return "", false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if rest, ok := strings.CutPrefix(text, "pvfslint:hotpath"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// parseClasses parses the directive's optional class list.
func parseClasses(rest string) (uint8, error) {
	if rest == "" {
		return classAll, nil
	}
	var mask uint8
	for _, f := range strings.Split(rest, ",") {
		switch strings.TrimSpace(f) {
		case "alloc":
			mask |= classAlloc
		case "block":
			mask |= classBlock
		case "syscall":
			mask |= classSyscall
		default:
			return 0, fmt.Errorf("unknown effect class %q (want alloc, block, syscall)", strings.TrimSpace(f))
		}
	}
	return mask, nil
}

func classBit(k Kind) uint8 {
	switch k {
	case KindAlloc:
		return classAlloc
	case KindBlock:
		return classBlock
	case KindSyscall:
		return classSyscall
	}
	return 0
}

// hot is the per-pass analysis context.
type hot struct {
	pass  *analysis.Pass
	prog  *callgraph.Program
	st    *state
	facts map[*callgraph.Node][]localEffect
	coro  map[types.Object]bool // see coroHandles
}

// summarize computes one function's effect summary from its body and its
// callees' summaries (re-run within an SCC until converged).
func (h *hot) summarize(n *callgraph.Node, sums map[string]effSummary) effSummary {
	out := make(effSummary)
	add := func(k effKey, w witness) {
		if _, ok := out[k]; !ok {
			out[k] = w
		}
	}
	// own records an effect of n's own body, under its audit if it has one.
	own := func(kind Kind, what string, pos token.Pos) {
		k := effKey{kind: kind, fn: n.ID, what: what}
		if d := h.audit(n, pos); d.IsValid() {
			h.st.audits[d] = true
			k = effKey{kind: kind, audit: d}
		}
		add(k, witness{pos: pos, site: pos})
	}
	// Own-body effects first: a function's own witness always beats a chain
	// through an SCC sibling, which keeps chains minimal and convergent.
	for _, le := range h.localEffects(n) {
		own(le.kind, le.what, le.pos)
	}
	propagate := func(id string, sitePos token.Pos) {
		if h.prog.Node(id) == nil {
			return
		}
		for k, w := range sums[id] {
			add(k, witness{pos: w.pos, site: sitePos, chain: prepend(id, w.chain)})
		}
	}
	for _, c := range n.Calls {
		sitePos := c.Site.Pos()
		if c.Static != nil {
			if _, isCall := c.Site.(*ast.CallExpr); !isCall {
				if c.Static.Type().(*types.Signature).Recv() != nil {
					// x.M taken as a value binds the receiver: a closure.
					own(KindAlloc, "method value (bound closure)", sitePos)
				}
			}
			// Intrinsics are keyed by package path, which only matches
			// stdlib packages — callees the program never contains in real
			// runs (the corpus stubs shadow those paths deliberately, to
			// pin the table down in tests).
			if kind, what, ok := intrinsicEffect(c.Static); ok {
				own(kind, what, sitePos)
			}
		}
		targets, kind, what := h.resolve(n, c)
		if what != "" {
			own(kind, what, sitePos)
		}
		for _, id := range targets {
			propagate(id, sitePos)
		}
	}
	return out
}

// audit returns the directive that audits an effect at pos in n's body: the
// one on the effect's line or the line above, else one in n's doc comment.
func (h *hot) audit(n *callgraph.Node, pos token.Pos) token.Pos {
	if d := h.pass.Directive(pos); d.IsValid() {
		return d
	}
	if n.Decl.Doc != nil {
		for _, c := range n.Decl.Doc.List {
			// A directive covers its own line, so a doc line that looks
			// itself up and finds itself is one.
			if d := h.pass.Directive(c.Pos()); d == c.Pos() {
				return d
			}
		}
	}
	return token.NoPos
}

// resolve maps one call edge to propagation targets and, when the callees
// cannot be enumerated mode-independently, the call's own effect: dynamic,
// or a blocking switch when the callee is a coroutine handle.
func (h *hot) resolve(n *callgraph.Node, c callgraph.Call) ([]string, Kind, string) {
	if c.Static != nil {
		return []string{callgraph.IDOf(c.Static)}, 0, ""
	}
	if c.Iface != nil {
		if id, ok := h.devirt(n, c); ok {
			return []string{id}, 0, ""
		}
		return h.prog.TargetsOf(c), KindDynamic, "interface call " + c.Method
	}
	if h.coro[exprObj(n.Info, c.Site.(*ast.CallExpr).Fun)] {
		return nil, KindBlock, "coroutine switch"
	}
	return nil, KindDynamic, "func-value call"
}

func prepend(id string, chain []string) []string {
	out := make([]string, 0, len(chain)+1)
	out = append(out, id)
	return append(out, chain...)
}

// shortID trims the module prefix off a callgraph ID for messages.
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
