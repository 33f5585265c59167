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
// implementor's summary propagates (standalone mode sees cross-package
// implementors; the go vet driver analyzes one compilation unit per process
// and degrades to the same-package subset, which is why the dynamic entry —
// computable identically in both modes — is the budget key, not the CHA
// resolution).
//
// Findings are diffed against a checked-in baseline, lint/hotpath.budget.json,
// keyed by (root, effect, containing function, what). The baseline is a
// ratchet, not a snapshot: any effect not in the budget fails the suite with
// a root→callee chain; a budget entry the analysis no longer produces is a
// hard error (stale audit, detected in the Finish hook of whole-module
// runs); a matched entry with an empty reason is an error too — the same
// hygiene okreason enforces for //pvfslint:ok. "pvfslint -write-budget"
// regenerates the file, preserving existing reasons.
//
// hotpath also subsumes the retired engescape analyzer: no *sim.Proc or
// *sim.Engine may be captured by a real goroutine or stored in a
// package-level variable (see escape.go). Those checks are unconditional —
// repo-wide, not root-scoped — and keep engescape's suppression contract
// under "//pvfslint:ok hotpath <reason>".
//
// Test files and the analysis tooling itself (internal/analysis/...,
// cmd/pvfslint) are skipped.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/callgraph"
)

// Analyzer enforces the allocation/blocking/wall-clock budget of declared
// hot-path roots.
var Analyzer = &analysis.Analyzer{
	Name:   "hotpath",
	Doc:    "effects reachable from //pvfslint:hotpath roots (allocation, blocking, syscall/wall-clock, dynamic dispatch) must be audited in lint/hotpath.budget.json; sim engine handles must not escape to goroutines or globals",
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

// effKey identifies one budgetable effect: its kind, the function whose body
// contains the effect site, and a short description. The witness chain is
// deliberately not part of the key — a refactor that reroutes the path to an
// already-audited effect does not invalidate the audit.
type effKey struct {
	kind Kind
	fn   string // callgraph ID of the containing function
	what string
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

// rootInfo records one declared hot-path root.
type rootInfo struct {
	classes uint8
	declPos token.Pos
}

// stateKey is the Repo key of the run-wide hotpath state.
const stateKey = "hotpath.state"

// state is the cross-package accumulator for one driver run.
type state struct {
	sums       map[string]effSummary
	budget     *Budget
	budgetPath string
	matched    []bool // per budget entry
	produced   []Entry
	seen       map[string]bool // produced entry keys
	fresh      []Entry         // produced but not budgeted
	stale      []Entry         // budgeted but not produced (filled by finish)
	roots      map[string]rootInfo
	pkgs       map[string]bool // packages whose summaries this run computed
}

func getState(repo *analysis.Repo) *state {
	st, _ := repo.Get(stateKey).(*state)
	if st == nil {
		st = &state{
			sums:  make(map[string]effSummary),
			seen:  make(map[string]bool),
			roots: make(map[string]rootInfo),
			pkgs:  make(map[string]bool),
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
	st.pkgs[pass.Pkg.Path()] = true

	prog, g := callgraph.Of(pass)
	h := &hot{pass: pass, prog: prog, st: st, facts: make(map[*callgraph.Node][]localEffect), coro: coroHandles(pass)}

	// Collect this package's root directives before summarizing, so a root
	// that is also reachable from another root is still summarized normally.
	var roots []*callgraph.Node
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
		st.roots[n.ID] = rootInfo{classes: classes, declPos: n.Decl.Name.Pos()}
		roots = append(roots, n)
	}

	callgraph.Fixpoint(g.SCCs, st.sums,
		func(a, b effSummary) bool { return len(a) == len(b) },
		h.summarize)

	// Load the baseline even when this package declares no roots: a budget
	// entry whose root directive was deleted outright must still turn stale
	// in Finish, which requires the budget to have been resolved.
	if err := h.loadBudget(); err != nil {
		return err
	}
	if len(roots) == 0 {
		return nil
	}
	idx := st.budget.index()
	for _, n := range roots {
		ri := st.roots[n.ID]
		s := st.sums[n.ID]
		keys := make([]effKey, 0, len(s))
		for k := range s {
			keys = append(keys, k)
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
			if k.kind != KindDynamic && ri.classes&classBit(k.kind) == 0 {
				continue
			}
			w := s[k]
			e := Entry{Root: n.ID, Effect: k.kind.String(), Func: k.fn, What: k.what, Chain: w.chain}
			if st.seen[e.key()] {
				continue
			}
			st.seen[e.key()] = true
			st.produced = append(st.produced, e)
			if i, ok := idx[e.key()]; ok {
				st.matched[i] = true
				continue
			}
			st.fresh = append(st.fresh, e)
			via := ""
			if len(w.chain) > 0 {
				parts := make([]string, len(w.chain))
				for i, id := range w.chain {
					parts[i] = shortID(id)
				}
				via = " (via " + strings.Join(parts, " → ") + ")"
			}
			pass.Reportf(w.site, "hot path %s: %s %q in %s%s — not in the hotpath budget: eliminate it, or audit it with a reasoned entry via pvfslint -write-budget",
				shortID(n.ID), k.kind.noun(), k.what, shortID(k.fn), via)
		}
	}
	return nil
}

// loadBudget resolves and loads the baseline once per run. An unreadable or
// malformed budget is a load error (driver exit 2), not a finding.
func (h *hot) loadBudget() error {
	st := h.st
	if st.budget != nil {
		return nil
	}
	path := BudgetOverride
	if path == "" {
		path = discoverBudget(h.pass)
	}
	b, err := LoadBudget(path)
	if err != nil {
		return fmt.Errorf("hotpath: reading budget %s: %w", path, err)
	}
	st.budget = b
	st.budgetPath = path
	st.matched = make([]bool, len(b.Entries))
	return nil
}

// finish runs once per whole-module driver run: stale-audit detection and
// the empty-reason check. Both need the complete produced set, so they
// cannot run per package; the go vet driver (one unit per process) never
// gets here, which is fine — vet-mode entries are a subset of standalone
// entries, and the repository self-check runs the standalone loader.
func finish(repo *analysis.Repo, report func(analysis.Diagnostic)) error {
	st, _ := repo.Get(stateKey).(*state)
	if st == nil || st.budget == nil {
		return nil
	}
	for i, be := range st.budget.Entries {
		// Only judge entries whose root package was analyzed this run: a
		// partial run (pvfslint ./internal/mem) proves nothing about roots
		// it never summarized.
		if !st.pkgs[rootPkg(be.Root)] {
			continue
		}
		pos := token.NoPos
		if ri, ok := st.roots[be.Root]; ok {
			pos = ri.declPos
		}
		switch {
		case !st.matched[i]:
			st.stale = append(st.stale, be)
			report(analysis.Diagnostic{
				Pos:      pos,
				Analyzer: "hotpath",
				Message: fmt.Sprintf("hotpath budget entry is stale: root %s no longer yields %s %q in %s — remove the entry or regenerate with pvfslint -write-budget",
					shortID(be.Root), kindOf(be.Effect).noun(), be.What, shortID(be.Func)),
			})
		case strings.TrimSpace(be.Reason) == "":
			report(analysis.Diagnostic{
				Pos:      pos,
				Analyzer: "hotpath",
				Message: fmt.Sprintf("hotpath budget entry for root %s (%s %q in %s) carries no reason: an audited entry must say why the effect is acceptable",
					shortID(be.Root), kindOf(be.Effect).noun(), be.What, shortID(be.Func)),
			})
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

func kindOf(s string) Kind {
	switch s {
	case "alloc":
		return KindAlloc
	case "block":
		return KindBlock
	case "syscall":
		return KindSyscall
	}
	return KindDynamic
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
	// Own-body effects first: a function's own witness always beats a chain
	// through an SCC sibling, which keeps chains minimal and convergent.
	for _, le := range h.localEffects(n) {
		add(effKey{kind: le.kind, fn: n.ID, what: le.what}, witness{pos: le.pos, site: le.pos})
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
					add(effKey{kind: KindAlloc, fn: n.ID, what: "method value (bound closure)"},
						witness{pos: sitePos, site: sitePos})
				}
			}
			// Intrinsics are keyed by package path, which only matches
			// stdlib packages — callees the program never contains in real
			// runs (the corpus stubs shadow those paths deliberately, to
			// pin the table down in tests).
			if kind, what, ok := intrinsicEffect(c.Static); ok {
				add(effKey{kind: kind, fn: n.ID, what: what}, witness{pos: sitePos, site: sitePos})
			}
		}
		targets, kind, what := h.resolve(n, c)
		if what != "" {
			add(effKey{kind: kind, fn: n.ID, what: what}, witness{pos: sitePos, site: sitePos})
		}
		for _, id := range targets {
			propagate(id, sitePos)
		}
	}
	return out
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

// rootPkg extracts the package path from a callgraph ID ("pkg.F" or
// "(pkg.T).M").
func rootPkg(id string) string {
	if rest, ok := strings.CutPrefix(id, "("); ok {
		if j := strings.Index(rest, ")"); j > 0 {
			if i := strings.LastIndex(rest[:j], "."); i >= 0 {
				return rest[:i]
			}
		}
		return ""
	}
	if i := strings.LastIndex(id, "."); i >= 0 {
		return id[:i]
	}
	return ""
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
