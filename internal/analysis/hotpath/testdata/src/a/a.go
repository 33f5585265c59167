// Package a exercises the hotpath analyzer's effect detection: allocation
// kinds, blocking primitives, interface devirtualization, SCC recursion,
// intrinsics, calls that never return, and the directive's class filter.
// Nothing here is audited, so every effect reports.
package a

import (
	"fmt"
	"iter"
	"pvfsib/internal/sim"
	"sync"
	"time"
)

// kinds covers the own-body effect detectors.
//
//pvfslint:hotpath
func kinds(n int, m map[string]int, s []int, ch chan int) {
	b := make([]byte, n) // want `hot path a\.kinds: allocation "make" in a\.kinds at a\.go:19 — unaudited: eliminate it, or audit it there with //pvfslint:ok hotpath <reason>`
	_ = b
	q := new(int) // want `allocation "new" in a\.kinds`
	_ = q
	s = append(s, 1) // want `allocation "append \(may grow\)" in a\.kinds`
	_ = s
	m["k"] = 1 // want `allocation "map insert" in a\.kinds`
	ch <- 1    // want `blocking effect "chan send" in a\.kinds`
	<-ch       // want `blocking effect "chan receive" in a\.kinds`
}

// strider covers closures, go statements, string concatenation, and the
// func-value dynamic effect.
//
//pvfslint:hotpath
func strider(a, b string) string {
	f := func() {} // want `allocation "closure" in a\.strider`
	f()            // want `dynamic call "func-value call" in a\.strider`
	go f()         // want `allocation "go statement \(new goroutine\)" in a\.strider`
	return a + b   // want `allocation "string concatenation" in a\.strider`
}

// pump blocks through the sim stub: Recv parks, Park receives — the effect
// reports with the interprocedural chain and its own position in the stub.
//
//pvfslint:hotpath
func pump(p *sim.Proc, mb *sim.Mailbox) {
	mb.Recv(p) // want `blocking effect "chan receive" in \(sim\.Proc\)\.Park at sim\.go:38 \(via \(sim\.Mailbox\)\.Recv → \(sim\.Proc\)\.Park\)`
}

type iface interface{ M() int }

type impl1 struct{ n int }

func (i impl1) M() int { b := make([]byte, 1); return len(b) }

type impl2 struct{ n int }

func (i impl2) M() int { return i.n }

// devirted resolves x.M() per callsite: x has exactly one assignment of
// concrete type impl2, whose M is effect-free — no dynamic entry, nothing
// to budget.
//
//pvfslint:hotpath
func devirted() int {
	var x iface = impl2{}
	return x.M()
}

// dynamic cannot devirtualize a parameter: the site is budgeted as a
// dynamic call, and the CHA implementors' effects propagate on top.
//
//pvfslint:hotpath
func dynamic(x iface) int {
	return x.M() // want `dynamic call "interface call M" in a\.dynamic` `allocation "make" in \(a\.impl1\)\.M at \S+:\d+ \(via \(a\.impl1\)\.M\)`
}

// looper reaches an allocation through a two-function recursion cycle: the
// SCC fixpoint must converge and the chain stay minimal.
//
//pvfslint:hotpath
func looper(n int) {
	mutualA(n) // want `allocation "make" in a\.mutualB at \S+:\d+ \(via a\.mutualA → a\.mutualB\)`
}

func mutualA(n int) {
	if n > 0 {
		mutualB(n - 1)
	}
}

func mutualB(n int) {
	b := make([]byte, n)
	_ = b
	mutualA(n - 1)
}

// allocOnly budgets only its allocations: parking is this root's job, so
// the chan send stays silent.
//
//pvfslint:hotpath alloc
func allocOnly(ch chan int, n int) {
	ch <- n
	b := make([]byte, n) // want `allocation "make" in a\.allocOnly`
	_ = b
}

// clocky hits the stdlib intrinsic table: the stub bodies are empty, the
// classification comes from the table.
//
//pvfslint:hotpath
func clocky(mu *sync.Mutex) time.Time {
	mu.Lock() // want `blocking effect "sync\.Lock" in a\.clocky`
	defer mu.Unlock()
	return time.Now() // want `syscall/wall-clock effect "time\.Now" in a\.clocky`
}

// formatty stacks three allocations on one call: the Sprintf intrinsic, the
// variadic slice, and boxing the int argument into ...any.
//
//pvfslint:hotpath
func formatty(n int) string {
	return fmt.Sprintf("n=%d", n) // want `allocation "fmt\.Sprintf" in a\.formatty` `allocation "variadic argument slice" in a\.formatty` `allocation "interface conversion \(boxing\)" in a\.formatty`
}

// fatal builds the arguments of two calls that never return: the run is
// over, so neither Failf's boxed variadic arguments nor the panic message's
// concatenation is a hot-path effect. What Failf itself does still counts.
//
//pvfslint:hotpath
func fatal(n int, name string) {
	if n < 0 {
		sim.Failf("bad n %d", n) // want `allocation "string concatenation" in sim\.Failf at sim\.go:12 \(via sim\.Failf\)`
	}
	panic("unreachable: " + name)
}

// bindIt returns a bound method value — a closure allocation.
//
//pvfslint:hotpath
func bindIt(p *sim.Proc) func() int64 {
	return p.Now // want `allocation "method value \(bound closure\)" in a\.bindIt`
}

// coro is a coroutine in the engine's style: next and stop come from
// iter.Pull, and the body keeps its yield parameter in a field so that code
// it calls can suspend it.
type coro struct {
	next  func() (int, bool)
	stop  func()
	yield func(int) bool
	other func()
}

func (c *coro) body(yield func(int) bool) {
	c.yield = yield
}

func newCoro() *coro {
	c := new(coro)
	c.next, c.stop = iter.Pull(c.body)
	return c
}

func resume(c *coro)  { c.next() }
func suspend(c *coro) { c.yield(1) }
func finish(c *coro)  { c.stop() }

// switcher reaches all three handles: each is a blocking coroutine switch,
// not an unknown callee. A func-typed field that never saw iter.Pull stays
// a dynamic call.
//
//pvfslint:hotpath
func switcher(c *coro) {
	resume(c)  // want `blocking effect "coroutine switch" in a\.resume at \S+:\d+ \(via a\.resume\)`
	suspend(c) // want `blocking effect "coroutine switch" in a\.suspend at \S+:\d+ \(via a\.suspend\)`
	finish(c)  // want `blocking effect "coroutine switch" in a\.finish at \S+:\d+ \(via a\.finish\)`
	c.other()  // want `dynamic call "func-value call" in a\.switcher`
}

// pullLit covers the literal form: the yield parameter of a function
// literal, with the results thrown away.
//
//pvfslint:hotpath
func pullLit() {
	_, _ = iter.Pull(func(yield func(int) bool) { // want `allocation "closure" in a\.pullLit`
		yield(1) // want `blocking effect "coroutine switch" in a\.pullLit`
	})
}

// pullLocals covers results held in local variables (one finding: the key
// is per function, so stop folds into next's).
//
//pvfslint:hotpath
func pullLocals(c *coro) {
	next, stop := iter.Pull(c.body) // want `allocation "method value \(bound closure\)" in a\.pullLocals`
	next()                          // want `blocking effect "coroutine switch" in a\.pullLocals`
	stop()
}

type record struct{ n int }

// pooled reaches an allocation only through a generic free list's miss: the
// call on the instantiation resolves to the generic body, so the stub's
// unaudited new(T) reports from here.
//
//pvfslint:hotpath
func pooled(l *sim.FreeList[record]) int {
	return l.Take().n // want `allocation "new" in \(sim\.FreeList\)\.Take at sim\.go:\d+ \(via \(sim\.FreeList\)\.Take\)`
}

// badClasses has a malformed class list.
//
//pvfslint:hotpath alloc,zap
func badClasses() {} // want `bad //pvfslint:hotpath directive on a\.badClasses: unknown effect class "zap"`
