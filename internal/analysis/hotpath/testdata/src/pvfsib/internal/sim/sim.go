// Package sim is a test stub: just enough of the simulator's surface for
// the analyzers' type checks to engage. No stdlib imports (the analysistest
// loader resolves imports only within the corpus). Unlike the other
// analyzers' stubs, the bodies here are real enough to carry effects: the
// hotpath analyzer must see Park's channel receive propagate up through
// Recv into the corpus roots, exactly as the real engine's wait primitives
// do.
package sim

// Failf never returns; analyzers recognize it by name and package.
func Failf(format string, args ...any) {
	msg := "sim: " + format
	panic(msg)
}

type Engine struct {
	procs []*Proc
}

func NewEngine() *Engine { return &Engine{} }

func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{wake: make(chan int)}
	e.procs = append(e.procs, p)
	return p
}

func (e *Engine) Run() error { return nil }

type Proc struct {
	wake chan int
}

func (p *Proc) Now() int64 { return 0 }

// Park blocks the process until the engine wakes it — the one channel
// receive every simulated wait funnels through.
func (p *Proc) Park() { <-p.wake }

type Mailbox struct {
	q []any
}

// Recv parks until a message arrives.
func (m *Mailbox) Recv(p *Proc) any {
	p.Park()
	return nil
}

// FreeList is the engine's generic free list: every pool's one allocation
// is the miss in Take, reached through the instantiated method.
type FreeList[T any] struct {
	free []*T
}

func (l *FreeList[T]) Take() *T {
	if n := len(l.free) - 1; n >= 0 {
		x := l.free[n]
		l.free = l.free[:n]
		return x
	}
	return new(T)
}
