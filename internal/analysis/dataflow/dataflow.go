// Package dataflow is a small forward-dataflow engine over the cfg package's
// control-flow graphs: a lattice join plus a worklist, with edge-sensitive
// transfer so analyzers can refine facts along the two arms of a branch
// ("if err != nil" means something different on each edge).
//
// An analyzer describes its problem as a Problem, runs Fixpoint, and then
// replays the transfer over each reachable block with ReplayBlock to attach
// diagnostics to individual nodes with the exact fact flowing into them.
// Facts are immutable by convention: Transfer and TransferEdge must return a
// fresh (or unchanged) fact, never mutate their input — blocks share
// incoming facts.
//
// The engine is intraprocedural; Summarize is the hook for one-level call
// summaries: it hands every function declaration of a package to the
// analyzer to compute a per-function summary, which its Transfer can then
// consult at call sites.
package dataflow

import (
	"go/ast"
	"go/types"

	"pvfsib/internal/analysis/cfg"
)

// Fact is one lattice element. Problems define their own representation;
// nil is "unreachable" (bottom) and is never passed to Transfer.
type Fact any

// Problem describes one forward-dataflow analysis.
type Problem interface {
	// Entry returns the fact at function entry.
	Entry() Fact
	// Transfer applies one node's effect. It must not mutate in.
	Transfer(n ast.Node, in Fact) Fact
	// TransferEdge refines a block's out-fact along one outgoing edge
	// (e.Cond is nil for unconditional edges). It must not mutate out.
	TransferEdge(e cfg.Edge, out Fact) Fact
	// Join combines facts at a merge point. It must not mutate its inputs.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are the same lattice element; the
	// worklist stops re-queuing a block when its in-fact stops changing.
	Equal(a, b Fact) bool
}

// Result holds the fixpoint facts: In[b] is the fact at entry to block b,
// nil for blocks no path reaches.
type Result struct {
	Graph *cfg.Graph
	In    map[*cfg.Block]Fact
}

// maxSweepsPerBlock bounds fixpoint iteration for safety. Analyzer lattices
// are finite and small, so the bound is never hit by a correct Problem; a
// non-converging Join gives a partial (still sound for must-analyses that
// join toward "unknown") result instead of a hang.
const maxSweepsPerBlock = 64

// Fixpoint runs the worklist to convergence and returns the block in-facts.
func Fixpoint(g *cfg.Graph, p Problem) *Result {
	res := &Result{Graph: g, In: make(map[*cfg.Block]Fact, len(g.Blocks))}
	res.In[g.Entry] = p.Entry()

	visits := make(map[*cfg.Block]int, len(g.Blocks))
	work := []*cfg.Block{g.Entry}
	inWork := map[*cfg.Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false
		if visits[blk]++; visits[blk] > maxSweepsPerBlock {
			continue
		}
		out := res.In[blk]
		for _, n := range blk.Nodes {
			out = p.Transfer(n, out)
		}
		for _, e := range blk.Succs {
			f := p.TransferEdge(e, out)
			old, ok := res.In[e.To]
			var merged Fact
			if !ok {
				merged = f
			} else {
				merged = p.Join(old, f)
			}
			if ok && p.Equal(old, merged) {
				continue
			}
			res.In[e.To] = merged
			if !inWork[e.To] {
				work = append(work, e.To)
				inWork[e.To] = true
			}
		}
	}
	return res
}

// ReplayBlock re-applies the transfer through one block, calling visit with
// each node and the fact flowing into it — the hook for attaching
// diagnostics after the fixpoint. Unreachable blocks (nil in-fact) are
// skipped; the visit order matches Transfer order within the block.
func (r *Result) ReplayBlock(blk *cfg.Block, p Problem, visit func(n ast.Node, before Fact)) {
	in, ok := r.In[blk]
	if !ok {
		return
	}
	for _, n := range blk.Nodes {
		visit(n, in)
		in = p.Transfer(n, in)
	}
}

// Replay replays every reachable block in index order.
func (r *Result) Replay(p Problem, visit func(blk *cfg.Block, n ast.Node, before Fact)) {
	for _, blk := range r.Graph.Blocks {
		r.ReplayBlock(blk, p, func(n ast.Node, before Fact) { visit(blk, n, before) })
	}
}

// Summarize hands every function declaration with a body in files to
// compute; the results, keyed by the function's types.Func, are the
// one-level call summaries analyzers consult at intra-package call sites.
// Function literals are not summarized — a literal's body is analyzed as
// part of the function that contains it only when the analyzer chooses to
// descend.
func Summarize[S any](info *types.Info, files []*ast.File, compute func(fd *ast.FuncDecl) S) map[*types.Func]S {
	out := make(map[*types.Func]S)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = compute(fd)
			}
		}
	}
	return out
}

// Callee resolves the *types.Func a call expression invokes, or nil when the
// callee is not a declared function or method (function values, builtins,
// type conversions).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
