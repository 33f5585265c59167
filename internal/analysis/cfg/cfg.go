// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, for the flow-sensitive pvfslint analyzers (lifetime,
// errflow). It is the repository's stdlib-only stand-in for
// golang.org/x/tools/go/cfg, extended with two things those analyzers need:
//
//   - labeled edges: an edge out of a block that ends in a branch condition
//     carries the condition expression and the branch taken, so a dataflow
//     transfer can refine facts along the true and false arms ("if err !=
//     nil" kills the registration tied to err on the error arm);
//   - a defer exit chain: every return (and the fall-off-the-end exit)
//     routes through the function's deferred calls in reverse source order,
//     so a deferred Release is seen to run at function exit, on every exit
//     path.
//
// Short-circuit && and || split into separate blocks, giving each operand
// its own edge conditions. panic calls and the sim package's terminating
// helpers (sim.Failf) end their block with no successors: facts do not flow
// from a path that cannot return. Labels, goto, labeled break/continue,
// switch (with fallthrough), type switch, and select are all modeled.
//
// The defer chain is a may-execute approximation: a defer registered inside
// a branch still appears on the chain for every exit. Analyzers that care
// (lifetime) keep joins of diverging states silent, so the approximation
// cannot manufacture definite-state reports on its own.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pvfsib/internal/analysis"
)

// Graph is the control-flow graph of one function body. Entry starts the
// body; Exit is reached by every return and by falling off the end, after
// the defer chain. Blocks with no path from Entry are still present (dead
// code keeps its diagnostics) but dataflow never reaches them.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// Block is a straight-line run of AST nodes. Nodes holds statements and the
// condition expressions that end a branching block, in evaluation order.
// A statement appears in exactly one block; a deferred call expression
// appears once more, on the defer exit chain.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
	Preds []*Block

	// DeferChain marks blocks synthesized for the exit chain: their single
	// node is the *ast.CallExpr of a DeferStmt, replayed at function exit.
	DeferChain bool
}

// Edge connects a block to a successor. When the edge leaves a block that
// ends in a branch condition, Cond is that expression and Branch is its
// value along this edge; unconditional edges have a nil Cond.
type Edge struct {
	To     *Block
	Cond   ast.Expr
	Branch bool
}

// Evaluated is the part of a block node that runs where the node sits. A
// range loop's head holds the whole RangeStmt, but only the range
// expression is evaluated there: the body's statements live in their own
// blocks, and a transfer that walked them at the head too would see every
// body call twice.
func Evaluated(n ast.Node) ast.Node {
	if rs, ok := n.(*ast.RangeStmt); ok {
		return rs.X
	}
	return n
}

// String renders the graph for tests and debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, blk := range g.Blocks {
		tag := ""
		if blk == g.Entry {
			tag = " (entry)"
		}
		if blk == g.Exit {
			tag = " (exit)"
		}
		if blk.DeferChain {
			tag += " (defer)"
		}
		fmt.Fprintf(&b, "b%d%s:", blk.Index, tag)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&b, " %T", n)
		}
		b.WriteString(" ->")
		for _, e := range blk.Succs {
			if e.Cond != nil {
				fmt.Fprintf(&b, " b%d(%v)", e.To.Index, e.Branch)
			} else {
				fmt.Fprintf(&b, " b%d", e.To.Index)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Build constructs the CFG for one function body. info may be nil; when
// present it is used to recognize terminating calls (panic, sim.Failf) so
// their blocks get no successors. Function literals inside the body are NOT
// descended into — each literal is its own process/function and gets its own
// graph.
func Build(body *ast.BlockStmt, info *types.Info) *Graph {
	b := &builder{
		info:   info,
		labels: make(map[string]*labelBlocks),
	}
	b.g = &Graph{}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry

	// Collect deferred calls in source order (not descending into nested
	// function literals) and prebuild the exit chain: last-registered runs
	// first.
	var defers []*ast.DeferStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			defers = append(defers, n)
		}
		return true
	})
	b.exitVia = b.g.Exit
	for _, d := range defers { // reverse order: iterate forward, chain backward
		blk := b.newBlock()
		blk.DeferChain = true
		blk.Nodes = append(blk.Nodes, d.Call)
		b.edge(blk, Edge{To: b.exitVia})
		b.exitVia = blk
	}

	b.stmt(body)
	// Fall off the end of the body: an implicit return.
	b.jump(b.exitVia)

	for _, blk := range b.g.Blocks {
		for _, e := range blk.Succs {
			e.To.Preds = append(e.To.Preds, blk)
		}
	}
	return b.g
}

// labelBlocks records the targets a label can name.
type labelBlocks struct {
	target   *Block // goto target / loop head once known
	brk      *Block // labeled break target (loops, switch, select)
	cont     *Block // labeled continue target (loops)
	pending  []*Block
	resolved bool
}

type builder struct {
	g    *Graph
	info *types.Info
	cur  *Block

	// exitVia is where returns jump: the head of the defer chain, or Exit
	// when the function has no defers.
	exitVia *Block

	// breakTo / continueTo are the innermost targets; label targets live in
	// labels.
	breakTo    *Block
	continueTo *Block
	labels     map[string]*labelBlocks

	// fallTo is the next case body while building a switch, for fallthrough.
	fallTo *Block

	// pendingLabel is set between a LabeledStmt and the loop/switch it
	// labels, so break/continue targets can be registered under it.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from *Block, e Edge) {
	from.Succs = append(from.Succs, e)
}

// jump ends the current block with an unconditional edge to to and starts a
// fresh (initially unreachable) block.
func (b *builder) jump(to *Block) {
	if b.cur != nil && to != nil {
		b.edge(b.cur, Edge{To: to})
	}
	b.cur = b.newBlock()
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// stmt translates one statement into blocks and edges.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		thenB := b.newBlock()
		joinB := b.newBlock()
		elseB := joinB
		if s.Else != nil {
			elseB = b.newBlock()
		}
		b.cond(s.Cond, thenB, elseB)
		b.cur = thenB
		b.stmt(s.Body)
		b.edge(b.cur, Edge{To: joinB})
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, Edge{To: joinB})
		}
		b.cur = joinB

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		join := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.edge(b.cur, Edge{To: head})
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, join)
		} else {
			b.edge(b.cur, Edge{To: body})
		}
		b.withLoop(join, post, func() {
			b.cur = body
			b.stmt(s.Body)
		})
		b.edge(b.cur, Edge{To: post})
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, Edge{To: head})
		}
		b.cur = join

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		join := b.newBlock()
		// The RangeStmt node itself sits in the head: a transfer sees the
		// per-iteration key/value definitions there (and, through
		// Evaluated, only the range expression as code run there).
		b.edge(b.cur, Edge{To: head})
		head.Nodes = append(head.Nodes, s)
		b.edge(head, Edge{To: body})
		b.edge(head, Edge{To: join})
		b.withLoop(join, head, func() {
			b.cur = body
			b.stmt(s.Body)
		})
		b.edge(b.cur, Edge{To: head})
		b.cur = join

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.cases(s.Body, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.cases(s.Body, nil)

	case *ast.SelectStmt:
		b.cases(s.Body, func(c ast.Stmt, blk *Block) {
			if comm := c.(*ast.CommClause); comm.Comm != nil {
				blk.Nodes = append(blk.Nodes, comm.Comm)
			}
		})

	case *ast.LabeledStmt:
		lb := b.label(s.Label.Name)
		// A label is a join point: goto targets jump here.
		target := b.newBlock()
		b.edge(b.cur, Edge{To: target})
		b.cur = target
		lb.target = target
		lb.resolved = true
		for _, p := range lb.pending {
			b.edge(p, Edge{To: target})
		}
		lb.pending = nil
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			to := b.breakTo
			if s.Label != nil {
				to = b.label(s.Label.Name).brk
			}
			b.jump(to)
		case token.CONTINUE:
			to := b.continueTo
			if s.Label != nil {
				to = b.label(s.Label.Name).cont
			}
			b.jump(to)
		case token.GOTO:
			lb := b.label(s.Label.Name)
			if lb.resolved {
				b.jump(lb.target)
			} else {
				lb.pending = append(lb.pending, b.cur)
				b.cur = b.newBlock()
			}
		case token.FALLTHROUGH:
			b.jump(b.fallTo)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.exitVia)

	case *ast.DeferStmt:
		// The registration point is recorded here; the deferred call itself
		// was placed on the exit chain by Build.
		b.add(s)

	case *ast.ExprStmt:
		b.expr(s.X)
		if NeverReturns(b.info, s.X) {
			// panic / sim.Failf: no normal successor.
			b.cur = b.newBlock()
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assignments, declarations, go statements, sends, inc/dec: one
		// straight-line node.
		b.add(s)
	}
}

// cases builds the dispatch for switch, type switch, and select bodies:
// every clause is entered from the dispatch block, with an extra edge to the
// join when no default clause exists. prep, when set, seeds each clause
// block (select puts the comm statement there).
func (b *builder) cases(body *ast.BlockStmt, prep func(c ast.Stmt, blk *Block)) {
	dispatch := b.cur
	join := b.newBlock()
	hasDefault := false

	savedBreak, savedFall := b.breakTo, b.fallTo
	b.breakTo = join
	if b.pendingLabel != "" {
		b.label(b.pendingLabel).brk = join
		b.pendingLabel = ""
	}

	// First pass: create clause blocks so fallthrough can see its successor.
	blks := make([]*Block, len(body.List))
	for i := range body.List {
		blks[i] = b.newBlock()
	}
	for i, c := range body.List {
		var clauseBody []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				blks[i].Nodes = append(blks[i].Nodes, e)
			}
			clauseBody = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			clauseBody = c.Body
		}
		if prep != nil {
			prep(c, blks[i])
		}
		b.edge(dispatch, Edge{To: blks[i]})
		b.fallTo = join
		if i+1 < len(blks) {
			b.fallTo = blks[i+1]
		}
		b.cur = blks[i]
		for _, st := range clauseBody {
			b.stmt(st)
		}
		b.edge(b.cur, Edge{To: join})
	}
	if !hasDefault {
		b.edge(dispatch, Edge{To: join})
	}
	b.breakTo, b.fallTo = savedBreak, savedFall
	b.cur = join
}

// withLoop runs build with break/continue targets set, registering them
// under a pending label if one is attached to the loop.
func (b *builder) withLoop(brk, cont *Block, build func()) {
	savedBreak, savedCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = brk, cont
	if b.pendingLabel != "" {
		lb := b.label(b.pendingLabel)
		lb.brk, lb.cont = brk, cont
		b.pendingLabel = ""
	}
	build()
	b.breakTo, b.continueTo = savedBreak, savedCont
}

func (b *builder) label(name string) *labelBlocks {
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{}
		b.labels[name] = lb
	}
	return lb
}

// cond translates a branch condition, splitting short-circuit operators into
// separate blocks so each operand contributes its own labeled edges.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	b.add(e)
	b.edge(b.cur, Edge{To: t, Cond: e, Branch: true})
	b.edge(b.cur, Edge{To: f, Cond: e, Branch: false})
	b.cur = b.newBlock() // unreachable; keeps the invariant that cur exists
}

// expr places an expression statement's expression, splitting top-level
// short-circuit operators so their operands get ordered blocks.
func (b *builder) expr(e ast.Expr) {
	if x, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && (x.Op == token.LAND || x.Op == token.LOR) {
		join := b.newBlock()
		rhs := b.newBlock()
		b.add(x.X)
		if x.Op == token.LAND {
			b.edge(b.cur, Edge{To: rhs, Cond: x.X, Branch: true})
			b.edge(b.cur, Edge{To: join, Cond: x.X, Branch: false})
		} else {
			b.edge(b.cur, Edge{To: join, Cond: x.X, Branch: true})
			b.edge(b.cur, Edge{To: rhs, Cond: x.X, Branch: false})
		}
		b.cur = rhs
		b.expr(x.Y)
		b.edge(b.cur, Edge{To: join})
		b.cur = join
		return
	}
	b.add(e)
}

// NeverReturns reports whether the expression is a call that never returns:
// the panic builtin, or sim.Failf (the scheduler's terminating assertion).
// Without type information only a call spelled panic(...) qualifies.
func NeverReturns(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, bare := call.Fun.(*ast.Ident)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if id == nil {
		return false
	}
	if info == nil {
		return bare && id.Name == "panic"
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		return obj.Name() == "panic"
	case *types.Func:
		return obj.Name() == "Failf" && analysis.IsPkg(obj.Pkg(), "internal/sim")
	}
	return false
}
