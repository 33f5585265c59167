package sim

// procQueue is a FIFO of parked processes. Pops advance a head index instead
// of reslicing so the backing array is reused: the ubiquitous
// park-wake-park cycle of device engines and mailboxes costs no allocations
// in steady state.
type procQueue struct {
	items []*Proc
	head  int
}

func (q *procQueue) len() int { return len(q.items) - q.head }

func (q *procQueue) push(p *Proc) { q.items = append(q.items, p) }
func (q *procQueue) compactIfDry() {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
}

func (q *procQueue) pop() *Proc {
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.compactIfDry()
	return p
}

// remove deletes the first occurrence of p, preserving order. It reports
// whether p was queued.
func (q *procQueue) remove(p *Proc) bool {
	for i := q.head; i < len(q.items); i++ {
		if q.items[i] == p {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
			q.compactIfDry()
			return true
		}
	}
	return false
}

// anyQueue is the same ring discipline for message payloads.
type anyQueue struct {
	items []any
	head  int
}

func (q *anyQueue) len() int { return len(q.items) - q.head }

func (q *anyQueue) push(v any) { q.items = append(q.items, v) }
func (q *anyQueue) pop() any {
	v := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Mailbox is an unbounded FIFO message queue between simulation processes.
// Send never blocks; Recv blocks (in virtual time) until a message arrives.
// The zero value is an empty mailbox, so mailboxes can be pooled.
type Mailbox struct {
	name    string
	queue   anyQueue
	waiters procQueue // processes parked in Recv, FIFO
}

// NewMailbox creates an empty mailbox. The name is used in diagnostics.
func (e *Engine) NewMailbox(name string) *Mailbox {
	return &Mailbox{name: name}
}

// Send enqueues v and wakes the oldest waiting receiver, if any. It may be
// called from a process or from a scheduled event callback.
func (m *Mailbox) Send(v any) {
	m.queue.push(v)
	if m.waiters.len() > 0 {
		p := m.waiters.pop()
		p.eng.wake(p)
	}
}

// Recv returns the oldest queued message, blocking the calling process until
// one is available. Messages are delivered in send order; when several
// receivers wait, they are served FIFO.
func (m *Mailbox) Recv(p *Proc) any {
	for m.queue.len() == 0 {
		m.waiters.push(p)
		p.park()
	}
	return m.queue.pop()
}

// RecvTimeout is Recv with a deadline: it returns the oldest queued message,
// or ok=false if none arrives within d of each park. The timer is armed only
// while the mailbox is empty, so a message already queued returns immediately
// and costs nothing. Timeouts are the foundation of the fault-recovery layer;
// code on the no-fault path should use Recv, which schedules no timer events.
func (m *Mailbox) RecvTimeout(p *Proc, d Duration) (v any, ok bool) {
	for m.queue.len() == 0 {
		// Each park is a wait of its own timeout record: a timer left over
		// from an earlier wait, or an earlier body, carries another one.
		s := p.g.sh
		t := s.timeouts.Take()
		*t = timeout{p: p, m: m, sh: s}
		p.wait = t
		p.g.afterCallOn(p.g, d, expire, t)
		m.waiters.push(p)
		p.park()
		if p.wait == nil {
			return nil, false
		}
		p.wait = nil // woken by a Send: the timer is stale from here on
	}
	return m.queue.pop(), true
}

// timeout is what a timed wait's timer carries: the waiting process, the
// mailbox, and the shard the record is recycled into. A record goes back to
// the free list only when its timer fires, so no two timers out at once
// share one, and a wait is told apart by its record alone.
type timeout struct {
	p  *Proc
	m  *Mailbox
	sh *shard
}

// expire is a timed wait's timer: it times the wait out, clearing p.wait,
// unless the process has left that wait or was already woken.
func expire(arg any) {
	t := arg.(*timeout)
	p, m, s := t.p, t.m, t.sh
	current := p.wait == t
	*t = timeout{}
	s.timeouts.Put(t)
	if current && m.waiters.remove(p) {
		p.wait = nil
		p.eng.wake(p)
	}
}

// TryRecv returns the oldest queued message without blocking. ok is false if
// the mailbox is empty.
func (m *Mailbox) TryRecv() (v any, ok bool) {
	if m.queue.len() == 0 {
		return nil, false
	}
	return m.queue.pop(), true
}

// Len reports the number of queued messages.
func (m *Mailbox) Len() int { return m.queue.len() }

// Resource is a counted resource (a semaphore) served FIFO. A Resource with
// capacity 1 models a serially-reusable device such as a disk arm or a NIC
// transmit engine.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  procQueue
}

// NewResource creates a resource with the given capacity (must be >= 1).
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Acquire obtains one unit, blocking in FIFO order while the resource is
// fully in use.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.inUse++
		return
	}
	r.waiters.push(p)
	p.park()
	// The releaser incremented inUse on our behalf before waking us.
}

// Release returns one unit and hands it directly to the oldest waiter, if
// any, preserving FIFO fairness.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if r.waiters.len() > 0 {
		r.eng.wake(r.waiters.pop()) // unit passes straight to waiter; inUse unchanged
		return
	}
	r.inUse--
}

// Use acquires the resource, sleeps for d, and releases it. This is the
// common pattern for charging serialized device time.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// WaitGroup counts outstanding work items, like sync.WaitGroup but in
// virtual time.
type WaitGroup struct {
	eng     *Engine
	count   int
	waiters procQueue
}

// NewWaitGroup creates a wait group with count zero.
func (e *Engine) NewWaitGroup() *WaitGroup { return &WaitGroup{eng: e} }

// Add adds delta to the count. When the count reaches zero, all waiters wake.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if w.count == 0 {
		for w.waiters.len() > 0 {
			w.eng.wake(w.waiters.pop())
		}
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks the calling process until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.count > 0 {
		w.waiters.push(p)
		p.park()
	}
}

// Cond is a condition variable: processes wait until another process calls
// Signal or Broadcast. There is no associated lock — the engine's one-process-
// at-a-time execution already makes state changes atomic.
type Cond struct {
	eng     *Engine
	waiters procQueue
}

// NewCond creates a condition variable.
func (e *Engine) NewCond() *Cond { return &Cond{eng: e} }

// Wait parks the calling process until signaled. As with sync.Cond, callers
// should re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	p.park()
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if c.waiters.len() == 0 {
		return
	}
	c.eng.wake(c.waiters.pop())
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.eng.wake(c.waiters.pop())
	}
}
