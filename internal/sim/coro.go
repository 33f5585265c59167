//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// carrier is a runtime coroutine that process bodies run on, with the
// record of the process it runs. The shard resumes it with next and a
// blocking process suspends it with yield: direct switches that never enter
// the scheduler's run queues. Once its body has returned it waits, record
// and all, on the shard's free list, so a spawn rarely makes one.
type carrier struct {
	p     Proc // the process being run, or the last one while idle; p.c is this carrier
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// shutdown is the panic value that unwinds the body of a stopped carrier.
type shutdown struct{}

// takeCarrier returns an idle carrier, or starts a new one if none is idle.
func (s *shard) takeCarrier() *carrier {
	c := s.carriers.Take()
	if c.next == nil {
		c.next, c.stop = iter.Pull(c.loop)
	}
	return c
}

// loop is the coroutine: run a body, go idle, repeat, until stopped.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for s := c.p.g.sh; c.runBody(); {
		s.carriers.Put(c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs c.p to completion; reuse is false after a panic or Shutdown.
func (c *carrier) runBody() (reuse bool) {
	p, s := &c.p, c.p.g.sh
	defer func() {
		r := recover()
		if _, dead := r.(shutdown); r != nil && !dead {
			s.panicked = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
		}
		s.unregister(p)
		p.fn = nil
		if PoisonReleased { // an idle record fails on use, so a stale handle cannot act
			p.eng, p.g, p.name, p.idx, p.traceCtx = nil, nil, "released process", -1, ^uint64(0)
		}
		reuse = r == nil
	}()
	p.fn(p)
	return
}

// suspend switches back to the shard until the next resume, or Shutdown.
func (p *Proc) suspend() {
	if !p.c.yield(struct{}{}) {
		panic(shutdown{})
	}
}
