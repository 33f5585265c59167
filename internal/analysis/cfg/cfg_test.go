package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// build parses src as a file containing one function and returns its CFG.
func build(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
			return Build(fn.Body, nil)
		}
	}
	t.Fatal("no function in source")
	return nil
}

// reachable returns the set of blocks reachable from the entry.
func reachable(g *Graph) map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.Succs {
			walk(e.To)
		}
	}
	walk(g.Entry)
	return seen
}

func TestStraightLine(t *testing.T) {
	g := build(t, `package p
func f() { x := 1; x++; _ = x }`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestIfJoin(t *testing.T) {
	g := build(t, `package p
func f(c bool) int { x := 0; if c { x = 1 } else { x = 2 }; return x }`)
	// The branch condition block must have a true and a false labeled edge.
	var condEdges int
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Cond != nil {
				condEdges++
			}
		}
	}
	if condEdges != 2 {
		t.Fatalf("want 2 labeled edges for one condition, got %d:\n%s", condEdges, g)
	}
	if !reachable(g)[g.Exit] {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestShortCircuitSplits(t *testing.T) {
	g := build(t, `package p
func f(a, b bool) { if a && b { println() } }`)
	// a && b: each operand gets its own pair of labeled edges.
	var condEdges int
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Cond != nil {
				condEdges++
			}
		}
	}
	if condEdges != 4 {
		t.Fatalf("want 4 labeled edges for a && b, got %d:\n%s", condEdges, g)
	}
}

func TestLoopBackEdge(t *testing.T) {
	g := build(t, `package p
func f() { for i := 0; i < 3; i++ { println(i) } }`)
	// Some reachable block must have an edge to an earlier block (the back
	// edge through the post statement to the loop head).
	back := false
	for b := range reachable(g) {
		for _, e := range b.Succs {
			if e.To.Index < b.Index && e.To != g.Exit {
				back = true
			}
		}
	}
	if !back {
		t.Fatalf("no back edge in loop CFG:\n%s", g)
	}
}

func TestBreakContinue(t *testing.T) {
	g := build(t, `package p
func f() {
	for {
		if true { break }
		if false { continue }
		println()
	}
	println("after")
}`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("break does not reach exit:\n%s", g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, `package p
func f() {
outer:
	for {
		for {
			break outer
		}
	}
	println("after")
}`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("labeled break does not reach exit:\n%s", g)
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	g := build(t, `package p
func f() {
	i := 0
top:
	i++
	if i < 3 {
		goto top
	}
	goto done
done:
	println(i)
}`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("goto CFG does not reach exit:\n%s", g)
	}
}

func TestReturnRoutesThroughDeferChain(t *testing.T) {
	g := build(t, `package p
func f(c bool) {
	defer println("a")
	defer println("b")
	if c {
		return
	}
	println("body")
}`)
	var chain []*Block
	for _, b := range g.Blocks {
		if b.DeferChain {
			chain = append(chain, b)
		}
	}
	if len(chain) != 2 {
		t.Fatalf("want 2 defer-chain blocks, got %d:\n%s", len(chain), g)
	}
	// Every path to Exit passes through the chain: Exit's only preds are
	// chain blocks.
	for _, p := range g.Exit.Preds {
		if !p.DeferChain {
			t.Fatalf("exit pred b%d bypasses the defer chain:\n%s", p.Index, g)
		}
	}
	// LIFO: the block holding println("b") must precede println("a").
	for b := range reachable(g) {
		for _, e := range b.Succs {
			if e.To.DeferChain && !b.DeferChain && b != g.Entry {
				// First chain block entered from the body is the last defer.
				call := e.To.Nodes[0].(*ast.CallExpr)
				lit := call.Args[0].(*ast.BasicLit)
				if lit.Value != `"b"` {
					t.Fatalf("defer chain is not LIFO: first chain call arg %s", lit.Value)
				}
			}
		}
	}
}

func TestPanicTerminates(t *testing.T) {
	g := build(t, `package p
func f() {
	panic("boom")
}`)
	// The block containing the panic call must not flow to exit.
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if len(b.Succs) != 0 {
					t.Fatalf("panic block has successors:\n%s", g)
				}
			}
		}
	}
}

// TestNeverReturnsTyped checks the typed form inside the engine package
// itself, where Failf is called unqualified: a shadowing panic and an
// ordinary call return, the builtin and Failf do not.
func TestNeverReturnsTyped(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sim.go", `package sim
func Failf(format string, args ...any) { panic(format) }
func other()                           {}
func f(panic func(string)) {
	Failf("x")
	other()
	panic("shadowed")
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	if _, err := (&types.Config{}).Check("pvfsib/internal/sim", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Failf": true, "other": false, "panic": false}
	body := f.Decls[2].(*ast.FuncDecl).Body
	for _, st := range body.List {
		call := st.(*ast.ExprStmt).X.(*ast.CallExpr)
		name := call.Fun.(*ast.Ident).Name
		if got := NeverReturns(info, call); got != want[name] {
			t.Errorf("NeverReturns(%s(...)) = %v, want %v", name, got, want[name])
		}
	}
	if !NeverReturns(info, f.Decls[0].(*ast.FuncDecl).Body.List[0].(*ast.ExprStmt).X) {
		t.Error("NeverReturns(builtin panic) = false")
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	g := build(t, `package p
func f(x int) {
	switch x {
	case 1:
		println(1)
		fallthrough
	case 2:
		println(2)
	default:
		println(3)
	}
	println("after")
}`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("switch does not reach exit:\n%s", g)
	}
}

func TestSelect(t *testing.T) {
	g := build(t, `package p
func f(a, b chan int) {
	select {
	case v := <-a:
		println(v)
	case b <- 1:
	}
}`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("select does not reach exit:\n%s", g)
	}
}

func TestRange(t *testing.T) {
	g := build(t, `package p
func f(xs []int) {
	for _, x := range xs {
		println(x)
	}
}`)
	if !reachable(g)[g.Exit] {
		t.Fatalf("range does not reach exit:\n%s", g)
	}
	back := false
	for b := range reachable(g) {
		for _, e := range b.Succs {
			if e.To.Index < b.Index && e.To != g.Exit {
				back = true
			}
		}
	}
	if !back {
		t.Fatalf("no back edge in range CFG:\n%s", g)
	}
}

func TestFuncLitNotDescended(t *testing.T) {
	g := build(t, `package p
func f() {
	g := func() { return }
	g()
}`)
	// The literal's return must not create an edge to this function's exit
	// chain from inside the literal: the assignment is one node.
	if !reachable(g)[g.Exit] {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				t.Fatalf("function literal body leaked into enclosing CFG:\n%s", g)
			}
		}
	}
}
