// Package sim implements a deterministic discrete-event simulation engine
// with a virtual clock and coroutine-backed processes.
//
// The engine drives at most one process per shard at a time, so simulation
// code needs no locking and is fully deterministic: the interleaving of
// processes is a function of the event timeline alone, never of the Go
// scheduler. Virtual time advances only when the event heap says so; data
// manipulation within a process is instantaneous in virtual time.
//
// A process is an ordinary function running on a carrier: a pooled runtime
// coroutine (iter.Pull) that its shard switches into and out of directly,
// bypassing the Go scheduler. It receives a *Proc handle and uses it to
// interact with virtual time:
//
//	eng := sim.NewEngine()
//	eng.Go("client", func(p *sim.Proc) {
//		p.Sleep(10 * time.Microsecond)
//		fmt.Println(p.Now())
//	})
//	eng.Run()
//
// The handle is the argument the body receives, valid until the body
// returns: the process record lives in its carrier and is recycled with it,
// so the spawn functions return no handle, and one kept longer names
// whichever process the carrier runs next (under PoisonReleased, none).
//
// Synchronization primitives (Mailbox, Resource, WaitGroup, Cond) are built
// on the park/wake mechanism and never consume virtual time by themselves.
//
// # Groups and shards
//
// Work can be partitioned into Groups — one per simulated node is the
// intended granularity — and groups spread round-robin over shards
// (SetShards). Each shard owns its own event heap, free list, and process
// set and runs on its own goroutine; shards synchronize conservatively on
// the engine's lookahead (SetLookahead): a window [T, T+lookahead) is safe
// to execute in parallel because no cross-shard event scheduled inside the
// window can land before its end. Cross-shard scheduling is only legal with
// a delay of at least the lookahead (Proc.AfterCallOn); same-instant
// interaction between groups on different shards is a model error.
//
// Event ordering is canonical and partition-independent: every event is
// keyed (time, origin group, origin sequence), where the origin sequence is
// a per-group counter stamped when the event is scheduled. The key does not
// depend on how groups are spread over shards, so a grouped workload
// produces byte-identical results at every shard count — including one —
// and at every GOMAXPROCS. An engine with no declared groups runs
// everything in the default group on one shard, which reduces to the
// classic (time, sequence) FIFO order.
//
// The inner loop, a spawn and a timed wait allocate nothing in steady state:
// event structs are recycled through a per-shard free list, every process
// carries its own reusable wake event (a parked process has at most one
// pending resume), and a Sleep whose expiry is next returns without a switch.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulation.
type Time int64

// Duration re-exports time.Duration for readability at call sites.
type Duration = time.Duration

// String formats the virtual time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the virtual time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled callback. Exactly one of fn, afn, or proc is set: fn
// is a plain closure, afn+arg is the closure-free form (AfterCallOn), and proc
// marks a process wake event living inside its Proc (never recycled here).
// Events are ordered by the canonical key (t, gid, gseq): origin group and
// per-group sequence, which is independent of the group-to-shard binding.
type event struct {
	t    Time
	gid  int32  // origin group id (canonical key)
	gseq uint64 // origin group sequence (canonical key)
	eg   *Group // exec group: the group whose shard runs the event
	fn   func()
	afn  func(any)
	arg  any
	proc *Proc
}

// before is the canonical event order; keys are unique, so pop order is a
// function of the keys alone, never of the heap's shape.
func before(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.gid < b.gid || a.gid == b.gid && a.gseq < b.gseq
}

// eventHeap is a binary min-heap on before.
type eventHeap []*event

func (h *eventHeap) pushEv(e *event) {
	q := append(*h, e)
	i := len(q) - 1
	for ; i > 0 && before(e, q[(i-1)/2]); i = (i - 1) / 2 {
		q[i] = q[(i-1)/2]
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) popEv() *event {
	q := *h
	n := len(q) - 1
	top, e := q[0], q[n]
	q[n] = nil
	*h = q[:n]
	i := 0
	for kid := 1; kid < n; kid = 2*i + 1 {
		if kid+1 < n && before(q[kid+1], q[kid]) {
			kid++
		}
		if !before(q[kid], e) {
			break
		}
		q[i] = q[kid]
		i = kid
	}
	if n > 0 {
		q[i] = e
	}
	return top
}

// Group is one logical partition of the simulation — one simulated node's
// worth of processes, timers, and synchronization state. Groups are the unit
// of shard placement: all events of a group execute on the group's shard, so
// state touched only by one group's events needs no locking at any shard
// count. Every engine has a default group (id 0) that ungrouped work runs in.
type Group struct {
	eng  *Engine
	sh   *shard
	id   int32
	seq  uint64 // per-group schedule counter, stamps canonical keys
	name string
}

// Name returns the label given at AddGroup time.
func (g *Group) Name() string { return g.name }

// ShardIndex reports which shard the group's events execute on, in
// [0, NumShards()). Layers that keep per-shard free lists (one pool per
// worker thread, so pooling needs no locks) index them with this.
func (g *Group) ShardIndex() int { return g.sh.idx }

// Now returns the virtual time on the group's shard. It is for the group's
// own event callbacks, which have no Proc to ask; between Run calls it reads
// the idle clock.
func (g *Group) Now() Time { return g.sh.now }

// AfterCall runs fn(arg) d from now on g itself. It is AfterCallOn for code
// that is already executing one of g's events — a device modeled as event
// callbacks instead of a process — and therefore has no Proc.
func (g *Group) AfterCall(d Duration, fn func(any), arg any) { g.afterCallOn(g, d, fn, arg) }

// afterCallOn schedules fn(arg) d from now on exec's shard, keyed by g; the
// caller must be executing on g's shard.
func (g *Group) afterCallOn(exec *Group, d Duration, fn func(any), arg any) {
	s := g.sh
	ev := s.evs.Take()
	ev.afn, ev.arg = fn, arg
	g.eng.scheduleEv(ev, s.now.Add(d), g, exec)
}

// Engine owns the virtual clock, the groups, and the shards.
type Engine struct {
	shards    []*shard
	groups    []*Group // groups[0] is the default group
	lookahead Duration
	windowEnd Time // end of the open window, or limit+1 unsharded; read-only while shards run
	now       Time // engine clock of a sharded engine: authoritative when idle
	running   bool
	sharded   bool // len(shards) > 1
	stopped   atomic.Bool
	windows   int64 // barrier rounds executed by runSharded
	// retirer is the owner Shutdown hands the engine's world back to once
	// it has unwound (SetRetirer).
	retirer Retirer
}

// Retirer owns what an engine's processes worked on — a cluster's memories,
// file systems and staging pools — and gives its storage back when the
// engine is shut down.
type Retirer interface {
	// Retire runs once, after Shutdown has ended every process.
	Retire()
}

// SetRetirer makes Shutdown end with r.Retire. An engine has one such slot;
// setting it again replaces the retirer.
func (e *Engine) SetRetirer(r Retirer) { e.retirer = r }

// ShardLoad is one shard's execution telemetry, accumulated across Run
// calls.
type ShardLoad struct {
	// Events is the number of events this shard executed.
	Events int64 `json:"events"`
	// Ingested is the number of cross-shard hand-offs this shard received
	// through its inbox.
	Ingested int64 `json:"ingested"`
	// MaxWindowEvents is the largest number of events this shard executed
	// inside one synchronization window.
	MaxWindowEvents int64 `json:"max_window_events"`
}

// Telemetry is the engine's execution-shape report: how much parallel
// work each window carried and how evenly it spread over shards. It
// describes the execution, not the simulation — totals are
// partition-invariant but the per-shard split (and Windows) depends on
// the shard count, so telemetry must never feed a determinism-checked
// artifact.
type Telemetry struct {
	// Windows is the number of conservative synchronization rounds run by
	// the sharded loop (zero on an unsharded engine).
	Windows int64 `json:"windows"`
	// Resumes is the number of events that switched into a process (every
	// other event is a callback run on the shard's own stack); InlineWakes
	// is the number of Sleep expiries taken without a switch. Both are
	// summed over shards, and both depend on where the windows fall.
	Resumes     int64 `json:"resumes"`
	InlineWakes int64 `json:"inline_wakes"`
	// Shards holds one entry per shard.
	Shards []ShardLoad `json:"shards"`
}

// TotalEvents sums events executed across shards. Unlike the per-shard
// split, the total is a property of the timeline alone and is identical
// at every shard count.
func (t Telemetry) TotalEvents() int64 {
	var n int64
	for _, s := range t.Shards {
		n += s.Events
	}
	return n
}

// Crossings sums cross-shard inbox hand-offs (zero on one shard).
func (t Telemetry) Crossings() int64 {
	var n int64
	for _, s := range t.Shards {
		n += s.Ingested
	}
	return n
}

// Imbalance reports max-over-mean of per-shard executed events: 1.0 is a
// perfect spread, k means the busiest shard carried k times its fair
// share. Zero events reports 1.0.
func (t Telemetry) Imbalance() float64 {
	if len(t.Shards) == 0 {
		return 1
	}
	total := t.TotalEvents()
	if total == 0 {
		return 1
	}
	var max int64
	for _, s := range t.Shards {
		if s.Events > max {
			max = s.Events
		}
	}
	mean := float64(total) / float64(len(t.Shards))
	return float64(max) / mean
}

// Telemetry snapshots the engine's execution counters. Call it while the
// engine is idle.
func (e *Engine) Telemetry() Telemetry {
	t := Telemetry{Windows: e.windows, Shards: make([]ShardLoad, len(e.shards))}
	for i, s := range e.shards {
		t.Shards[i] = ShardLoad{Events: s.nExec, Ingested: s.nIngest, MaxWindowEvents: s.maxWindow}
		t.Resumes += s.nResume
		t.InlineWakes += s.nInline
	}
	return t
}

// HostCost is what a stretch of simulation cost the host, in exact counts:
// the engine's work next to the storage work behind the simulated bytes.
// Every layer that moves, clears or recycles storage keeps one of its own,
// plain fields bumped where the work happens and touched only by the shard
// that owns the layer; a cluster folds them with Add. Like Telemetry it
// describes the execution and never feeds a virtual artifact.
type HostCost struct {
	Events      int64 `json:"events"`
	Resumes     int64 `json:"resumes"`      // events that switched into a process
	InlineWakes int64 `json:"inline_wakes"` // Sleep expiries taken without a switch
	// BytesCopied is payload moved by copy; BytesCleared is storage zeroed,
	// a fresh allocation whole and recycled storage where it was dirty.
	BytesCopied  int64 `json:"bytes_copied"`
	BytesCleared int64 `json:"bytes_cleared"`
	// Fresh and Recycled count the storage requests (simulated mallocs,
	// file extents, scratch buffers) that allocated and that reused.
	Fresh    int64 `json:"fresh"`
	Recycled int64 `json:"recycled"`
}

// Add accumulates o into h.
func (h *HostCost) Add(o HostCost) { h.fold(o, 1) }

// Sub returns h - o, the cost of what ran between two readings.
func (h HostCost) Sub(o HostCost) HostCost {
	h.fold(o, -1)
	return h
}

func (h *HostCost) fold(o HostCost, sign int64) {
	h.Events += sign * o.Events
	h.Resumes += sign * o.Resumes
	h.InlineWakes += sign * o.InlineWakes
	h.BytesCopied += sign * o.BytesCopied
	h.BytesCleared += sign * o.BytesCleared
	h.Fresh += sign * o.Fresh
	h.Recycled += sign * o.Recycled
}

// HostCost returns the engine's share of the host cost.
func (t Telemetry) HostCost() HostCost {
	return HostCost{Events: t.TotalEvents(), Resumes: t.Resumes, InlineWakes: t.InlineWakes}
}

// NewEngine returns an engine with the clock at zero, one shard, and the
// default group.
func NewEngine() *Engine {
	e := &Engine{}
	e.shards = []*shard{newShard(e, 0)}
	g0 := &Group{eng: e, sh: e.shards[0], id: 0, name: "default"}
	e.groups = []*Group{g0}
	return e
}

// SetShards grows the engine to n shards. It must be called before any
// non-default group is added: groups are bound to shards round-robin at
// AddGroup time. n below 1 is treated as 1; calling SetShards on a plain
// ungrouped engine is harmless.
func (e *Engine) SetShards(n int) {
	if e.running {
		Failf("sim: SetShards while running")
	}
	if len(e.groups) > 1 {
		Failf("sim: SetShards must precede AddGroup")
	}
	if n < 1 {
		n = 1
	}
	for len(e.shards) < n {
		e.shards = append(e.shards, newShard(e, len(e.shards)))
	}
	e.sharded = len(e.shards) > 1
}

// NumShards reports the number of shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// SetLookahead declares an upper bound on the engine's conservative
// synchronization window: no cross-shard interaction may take effect sooner
// than d after it is scheduled. Layers that own a cross-group delay (the
// fabric's link latency) declare theirs; the engine keeps the minimum.
// Non-positive values are ignored.
func (e *Engine) SetLookahead(d Duration) {
	if d <= 0 {
		return
	}
	if e.lookahead == 0 || d < e.lookahead {
		e.lookahead = d
	}
}

// AddGroup declares a new group, bound round-robin to one of the engine's
// shards. Call SetShards first; adding groups while the engine runs is an
// error.
func (e *Engine) AddGroup(name string) *Group {
	if e.running {
		Failf("sim: AddGroup while running")
	}
	g := &Group{eng: e, id: int32(len(e.groups)), name: name}
	g.sh = e.shards[(len(e.groups)-1)%len(e.shards)]
	e.groups = append(e.groups, g)
	return g
}

// DefaultGroup returns the engine's group 0, home of ungrouped work.
func (e *Engine) DefaultGroup() *Group { return e.groups[0] }

// Now returns the current virtual time. While a sharded engine is running,
// each shard has its own clock — use Proc.Now from simulation code; Engine.Now
// is for idle engines (between Run calls, or after Run returns). Unsharded,
// the engine clock is the one shard's clock.
func (e *Engine) Now() Time {
	if !e.sharded {
		return e.shards[0].now
	}
	return e.now
}

// scheduleEv stamps ev with origin's canonical key and routes it to exec's
// shard. The caller must be executing on origin's shard (or the engine must
// be idle). Cross-shard destinations get a conservative hand-off: the event
// must land at or beyond the current window's end, which the lookahead
// guarantees for any correctly modeled cross-group delay.
func (e *Engine) scheduleEv(ev *event, t Time, origin, exec *Group) {
	origin.seq++
	ev.gid, ev.gseq, ev.eg = origin.id, origin.seq, exec
	s := exec.sh
	if e.running && s != origin.sh {
		if t < e.windowEnd {
			Failf("sim: cross-shard event for group %q at %v inside window ending %v (interaction faster than the declared lookahead)",
				exec.name, t, e.windowEnd)
		}
		ev.t = t
		s.inMu.Lock()
		s.inbox = append(s.inbox, ev)
		s.inMu.Unlock()
		return
	}
	if t < s.now {
		t = s.now
	}
	ev.t = t
	s.events.pushEv(ev)
}

// groupless guards the engine-level scheduling APIs that carry no group
// information: they run in the default group, which is only sound while the
// engine is idle (setup, teardown) or running unsharded.
func (e *Engine) groupless(what string) *Group {
	if e.running && e.sharded {
		Failf("sim: %s without a group on a sharded engine; use the Proc- or Group-targeted form", what)
	}
	return e.groups[0]
}

// Schedule runs fn at time t (not before the current time) in the default
// group. On a sharded engine use ScheduleOn or Proc.After.
func (e *Engine) Schedule(t Time, fn func()) {
	g := e.groupless("Schedule")
	ev := g.sh.evs.Take()
	ev.fn = fn
	e.scheduleEv(ev, t, g, g)
}

// ScheduleOn runs fn at time t on g's shard. It is legal only while the
// engine is idle (fault-plane setup, test orchestration): the scheduling
// side carries no shard affinity to hand off from.
func (e *Engine) ScheduleOn(g *Group, t Time, fn func()) {
	if e.running {
		Failf("sim: ScheduleOn while running; use Proc.After or Proc.AfterCallOn")
	}
	ev := g.sh.evs.Take()
	ev.fn = fn
	e.scheduleEv(ev, t, g, g)
}

// After runs fn d from now in the default group.
func (e *Engine) After(d Duration, fn func()) { e.Schedule(e.Now().Add(d), fn) }

// Proc is the handle a simulation process uses to interact with virtual
// time: the process record, part of its carrier, valid until the body returns.
type Proc struct {
	eng  *Engine
	g    *Group
	name string
	fn   func(*Proc) // the body; nil once it has returned
	c    *carrier    // the carrier this record is part of
	// wakeEv is the process's reusable wake slot: a blocked process has at
	// most one pending resume, so its transfer event never needs the
	// engine's free list, let alone a fresh allocation.
	wakeEv   event
	parked   bool
	sleeping bool     // parked with the wake slot already queued (Sleep)
	idx      int      // position in its shard's proc list, for O(1) removal
	wait     *timeout // the timed wait in progress, nil if none (RecvTimeout)
	// daemon marks a service process that may park forever waiting for
	// work; Run does not count it as deadlocked (GoDaemonOn).
	daemon bool
	// traceCtx is the packed trace context (request + span IDs) the
	// process is currently working under. The engine never interprets it
	// — it is an opaque word the trace layer threads through spawns and
	// wire messages so child work lands under the right request.
	traceCtx uint64
}

// TraceCtx returns the process's packed trace context (zero = untraced).
func (p *Proc) TraceCtx() uint64 { return p.traceCtx }

// SetTraceCtx installs the packed trace context for subsequent work on
// this process.
func (p *Proc) SetTraceCtx(ctx uint64) { p.traceCtx = ctx }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Group returns the group this process belongs to.
func (p *Proc) Group() *Group { return p.g }

// Name returns the label given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time on this process's shard.
func (p *Proc) Now() Time { return p.g.sh.now }

// Go spawns a new process in the default group that begins executing at the
// current virtual time. The name is used in deadlock reports. On a sharded
// engine, runtime spawns must use Proc.Go (same group) or happen while the
// engine is idle (GoOn). The process's handle is the argument fn receives.
func (e *Engine) Go(name string, fn func(p *Proc)) {
	g := e.groupless("Go")
	e.goAt(g, g, g.sh.now, name, fn, false)
}

// GoAt spawns a new process in the default group that begins executing at
// time t.
func (e *Engine) GoAt(t Time, name string, fn func(p *Proc)) {
	g := e.groupless("GoAt")
	e.goAt(g, g, t, name, fn, false)
}

// GoOn spawns a new process in group g. It is legal only while the engine is
// idle: shard-local process lists cannot be mutated from another shard.
// Processes spawn their own same-group children at runtime with Proc.Go.
func (e *Engine) GoOn(g *Group, name string, fn func(p *Proc)) {
	e.GoAtOn(g, g.sh.now, name, fn)
}

// GoAtOn is GoOn starting at time t.
func (e *Engine) GoAtOn(g *Group, t Time, name string, fn func(p *Proc)) {
	if e.running {
		Failf("sim: GoOn/GoAtOn while running; spawn same-group children with Proc.Go")
	}
	e.goAt(g, g, t, name, fn, false)
}

// GoDaemonOn is GoOn for a service process — an adapter's responder, a
// daemon's connection loop — that parks forever waiting for work once the
// application is done. Run returns nil with daemons parked; only a parked
// process spawned otherwise is a deadlock.
func (e *Engine) GoDaemonOn(g *Group, name string, fn func(p *Proc)) {
	if e.running {
		Failf("sim: GoDaemonOn while running")
	}
	e.goAt(g, g, g.sh.now, name, fn, true)
}

// Go spawns a child process in the calling process's group, beginning at the
// current virtual time.
func (p *Proc) Go(name string, fn func(q *Proc)) {
	p.eng.goAt(p.g, p.g, p.g.sh.now, name, fn, false)
}

// goAt starts fn on an idle carrier, its record reset all but the carrier link.
func (e *Engine) goAt(origin, g *Group, t Time, name string, fn func(p *Proc), daemon bool) {
	s := g.sh
	c := s.takeCarrier()
	p := &c.p
	*p = Proc{eng: e, g: g, name: name, fn: fn, c: c, idx: len(s.procs), daemon: daemon}
	p.wakeEv.proc = p
	s.procs = append(s.procs, p)
	e.scheduleEv(&p.wakeEv, t, origin, g)
}

// After runs fn d from now on the calling process's group — the timer lands
// on the caller's shard, so it may consult and mutate the caller's state.
func (p *Proc) After(d Duration, fn func()) {
	s := p.g.sh
	ev := s.evs.Take()
	ev.fn = fn
	p.eng.scheduleEv(ev, s.now.Add(d), p.g, p.g)
}

// AfterCallOn runs fn(arg) d from now on g's shard, with the event's
// canonical key stamped by the calling process's group. This is the
// cross-shard hand-off primitive: when g lives on another shard, d must be
// at least the engine's lookahead (the fabric's link latency guarantees
// this for message delivery) and the event is passed through the target
// shard's inbox at the next window barrier.
func (p *Proc) AfterCallOn(g *Group, d Duration, fn func(any), arg any) {
	p.g.afterCallOn(g, d, fn, arg)
}

// park suspends the calling process until something wakes it. From a timer
// callback or on another process's handle there is no coroutine of p's to
// suspend, so the call fails.
func (p *Proc) park() {
	s := p.g.sh
	if s.cur != p {
		p.misuse("park", "called outside its own process")
	}
	p.parked = true
	s.nParked++
	p.suspend()
}

// misuse fails a call that breaks the process protocol.
func (p *Proc) misuse(op, why string) {
	Failf("sim: %s of %q %s", op, p.name, why)
}

// wake schedules p to resume at the current virtual time on its own shard.
// It is an error to wake a process that is not parked, and a model error to
// wake a process whose group lives on another shard — same-instant
// cross-shard interaction violates the lookahead contract.
func (e *Engine) wake(p *Proc) {
	if !p.parked {
		p.misuse("wake", "while it is not parked")
	}
	if p.sleeping {
		// The wake slot is already queued for the sleep expiry; enqueueing
		// it twice would corrupt the timeline.
		p.misuse("wake", "while it sleeps")
	}
	p.parked = false
	s := p.g.sh
	s.nParked--
	e.scheduleEv(&p.wakeEv, s.now, p.g, p.g)
}

// Sleep advances the process's virtual time by d. Negative durations are
// treated as zero (the process yields but no time passes).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.g.sh
	if s.cur != p {
		p.misuse("Sleep", "called outside its own process")
	}
	p.eng.scheduleEv(&p.wakeEv, s.now.Add(d), p.g, p.g)
	// Self-wake: if the expiry is the very next event of this run, the
	// shard loop would pop it and switch straight back here. Do what it
	// would have done and keep running.
	if ev := &p.wakeEv; s.events[0] == ev && ev.t < p.eng.windowEnd && !p.eng.stopped.Load() {
		s.now = s.events.popEv().t
		s.nExec++
		s.nInline++
		return
	}
	p.parked = true
	p.sleeping = true
	s.nParked++
	p.suspend()
}

// Yield lets any other event scheduled for the current instant in this
// process's group run before the process continues. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// DeadlockError reports a simulation where parked processes other than
// daemons remain but no events are pending to wake them.
type DeadlockError struct {
	Time   Time
	Parked []string // names of the parked processes that are not daemons
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) parked forever: %v",
		e.Time, len(e.Parked), e.Parked)
}

// Run executes events until the queue is empty. It returns a *DeadlockError
// if processes other than daemons remain parked with no pending events, and
// re-panics if any process panicked. A Run that ends with only daemons
// parked allocates nothing.
func (e *Engine) Run() error {
	return e.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= limit. It stops early on
// deadlock or an empty queue.
//
// This is the simulator's innermost loop: every virtual nanosecond of every
// experiment flows through it, so its steady state allocates nothing
// (TestEngineTurnoverAllocFree).
func (e *Engine) RunUntil(limit Time) error {
	e.running = true
	defer func() { e.running = false }()
	if !e.sharded {
		return e.runSingle(limit)
	}
	return e.runSharded(limit)
}

// runSingle is the unsharded inner loop: pop the globally least event key,
// execute, repeat. Its observable behavior is identical to the windowed
// sharded loop because the canonical event key is partition-independent.
func (e *Engine) runSingle(limit Time) error {
	s := e.shards[0]
	e.windowEnd = limit + 1
	for len(s.events) > 0 && !e.stopped.Load() {
		if s.events[0].t > limit {
			s.now = limit
			return nil
		}
		ev := s.events.popEv()
		s.now = ev.t
		s.nExec++
		s.exec(ev)
		if s.panicked != nil {
			panic(s.panicked)
		}
	}
	return e.checkDeadlock()
}

// runSharded is the conservative parallel loop: each iteration picks the
// global minimum pending event time T, opens the window [T, T+lookahead),
// and lets every shard drain its own sub-window events concurrently. Any
// event a shard schedules onto another shard lands at or beyond the window
// end (enforced in scheduleEv), so no shard can observe an effect it should
// have seen earlier; hand-offs sit in per-shard inboxes until the barrier.
func (e *Engine) runSharded(limit Time) error {
	if e.lookahead <= 0 {
		Failf("sim: sharded engine with no lookahead declared (SetLookahead)")
	}
	for _, s := range e.shards {
		go s.workerLoop()
	}
	defer func() {
		for _, s := range e.shards {
			s.work <- stopWorker
		}
	}()
	for {
		pending := 0
		tmin := Time(1<<63 - 1)
		for _, s := range e.shards {
			s.ingest()
			pending += len(s.events)
			if len(s.events) > 0 && s.events[0].t < tmin {
				tmin = s.events[0].t
			}
		}
		if pending == 0 || e.stopped.Load() {
			break
		}
		if tmin > limit {
			for _, s := range e.shards {
				if s.now < limit {
					s.now = limit
				}
			}
			e.now = limit
			return nil
		}
		we := tmin.Add(e.lookahead)
		if we > limit+1 {
			we = limit + 1 // events at exactly limit still run
		}
		e.windows++
		e.windowEnd = we
		for _, s := range e.shards {
			s.work <- we
		}
		for _, s := range e.shards {
			<-s.done
		}
		for _, s := range e.shards {
			if s.panicked != nil {
				panic(s.panicked)
			}
		}
	}
	// Synchronize every shard's clock to the global maximum so follow-up
	// phases (new processes spawned between Run calls) start at the same
	// instant regardless of the shard count.
	e.now = 0
	for _, s := range e.shards {
		if s.now > e.now {
			e.now = s.now
		}
	}
	for _, s := range e.shards {
		s.now = e.now
	}
	return e.checkDeadlock()
}

func (e *Engine) checkDeadlock() error {
	stuck := 0
	for _, s := range e.shards {
		if s.nParked == 0 {
			continue
		}
		for _, p := range s.procs {
			if p.parked && !p.daemon {
				stuck++
			}
		}
	}
	if stuck == 0 {
		return nil
	}
	names := make([]string, 0, stuck)
	for _, s := range e.shards {
		for _, p := range s.procs {
			if p.parked && !p.daemon {
				names = append(names, p.name)
			}
		}
	}
	sort.Strings(names)
	return &DeadlockError{Time: e.Now(), Parked: names}
}

// Stop makes Run return soon: after the current event on an unsharded
// engine, at the current window barrier on a sharded one. Parked processes
// are abandoned (their carriers stay suspended until Shutdown); Stop is
// intended for benchmarks that only need the clock reading.
func (e *Engine) Stop() { e.stopped.Store(true) }

// Shutdown terminates every process so that the engine — and everything
// its processes reference — becomes garbage-collectable. Without it,
// service processes that wait forever (device engines, daemon loops) pin
// their whole simulated world in memory for the life of the Go process.
// Started bodies unwind (their deferred functions run), a process whose
// first event never ran ends without running its body, and idle carriers
// end, so no goroutine of the engine's outlives it. Then the retirer, if
// one is set, hands the world's storage back (SetRetirer). Call it when a
// simulation will not be used again; the engine must not be used afterwards.
func (e *Engine) Shutdown() {
	for _, s := range e.shards {
		// Last first: an unwinding body unregisters itself, which moves the
		// last process into its slot; one that never started does not.
		for n := len(s.procs); n > 0; n = len(s.procs) {
			p := s.procs[n-1]
			if p.parked {
				p.parked, p.sleeping = false, false
				s.nParked--
			}
			s.cur = p // the body unwinds as the running process
			p.c.stop()
			if len(s.procs) == n {
				s.procs[n-1] = nil
				s.procs = s.procs[:n-1]
			}
		}
		for _, c := range s.carriers.free {
			c.stop()
		}
		s.cur, s.carriers = nil, FreeList[carrier]{}
		s.events = nil
		s.inbox = nil
	}
	if r := e.retirer; r != nil {
		e.retirer = nil
		r.Retire()
	}
}

// Census reports, shard by shard, the events, carriers and timeout records
// taken from the engine's free lists and not recycled: at quiescence no
// event or timeout is out, and one carrier is out per process still alive.
func (e *Engine) Census(add func(pool string, out int64)) {
	for _, s := range e.shards {
		add("sim.events", s.evs.Out())
		add("sim.carriers", s.carriers.Out())
		add("sim.timeouts", s.timeouts.Out())
	}
}

// Pending reports the number of queued events across all shards, including
// undelivered cross-shard hand-offs.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += len(s.events)
		s.inMu.Lock()
		n += len(s.inbox)
		s.inMu.Unlock()
	}
	return n
}

// shard owns one partition's event heap, free list, and processes. Exactly
// one event of a shard executes at a time; different shards execute
// concurrently inside a window.
type shard struct {
	eng      *Engine
	idx      int
	now      Time
	events   eventHeap
	evs      FreeList[event]   // recycled fn/afn events
	cur      *Proc             // the process whose body is executing, if any
	carriers FreeList[carrier] // carriers whose last body returned
	procs    []*Proc           // spawned and not yet finished
	timeouts FreeList[timeout] // records of timed waits' timers (RecvTimeout)
	nParked  int
	panicked any

	// Execution telemetry, surfaced by Engine.Telemetry.
	nExec     int64 // events executed
	nResume   int64 // of which switched into a process
	nInline   int64 // of which were Sleep expiries taken without a switch
	nIngest   int64 // cross-shard hand-offs received
	maxWindow int64 // most events executed in one window

	// inbox receives cross-shard hand-off events; drained at barriers.
	inMu  sync.Mutex
	inbox []*event

	work chan Time // window end, sent by the engine's barrier loop
	done chan struct{}
}

func newShard(e *Engine, idx int) *shard {
	return &shard{
		eng:  e,
		idx:  idx,
		work: make(chan Time),
		done: make(chan struct{}),
	}
}

// unregister removes a finished process from the live list.
func (s *shard) unregister(p *Proc) {
	last := len(s.procs) - 1
	s.procs[p.idx] = s.procs[last]
	s.procs[p.idx].idx = p.idx
	s.procs[last] = nil
	s.procs = s.procs[:last]
}

// exec runs one event. fn/afn events are recycled before their callback runs
// so the callback's own scheduling can reuse the struct.
func (s *shard) exec(ev *event) {
	if p := ev.proc; p != nil {
		if p.parked { // a Sleep expiring (wake() already cleared the flag)
			p.parked = false
			p.sleeping = false
			s.nParked--
		}
		s.cur = p
		s.nResume++
		p.c.next()
		s.cur = nil
		return
	}
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	ev.fn, ev.afn, ev.arg, ev.eg = nil, nil, nil, nil
	s.evs.Put(ev)
	if afn != nil {
		afn(arg)
		return
	}
	fn()
}

// ingest moves handed-off events from the inbox into the heap. Called at
// barriers while every shard is idle; the heap orders by the canonical key,
// so inbox arrival order — the only scheduler-dependent order in the whole
// engine — cannot influence execution order.
func (s *shard) ingest() {
	s.inMu.Lock()
	evs := s.inbox
	s.inbox = s.inbox[:0]
	s.inMu.Unlock()
	s.nIngest += int64(len(evs))
	for _, ev := range evs {
		s.events.pushEv(ev)
	}
	for i := range evs {
		evs[i] = nil
	}
}

// stopWorker on the work channel ends a shard worker's run. A stop is a
// message, not a close, so the channel survives the run and the next
// RunUntil on the same engine can respawn workers over it.
const stopWorker = Time(-1)

// workerLoop runs on the shard's own goroutine for the duration of one
// sharded Run: each window it drains local events below the window end.
func (s *shard) workerLoop() {
	for we := range s.work {
		if we == stopWorker {
			return
		}
		s.drain(we)
		s.done <- struct{}{}
	}
}

// drain executes this shard's events with t < we, including events those
// events schedule locally inside the window.
//
// This is the sharded twin of the engine's inner loop.
func (s *shard) drain(we Time) {
	defer func() {
		if r := recover(); r != nil && s.panicked == nil {
			s.panicked = r
		}
	}()
	start := s.nExec
	for len(s.events) > 0 && s.events[0].t < we {
		ev := s.events.popEv()
		s.now = ev.t
		s.nExec++
		s.exec(ev)
		if s.panicked != nil {
			break
		}
	}
	if n := s.nExec - start; n > s.maxWindow {
		s.maxWindow = n
	}
}
