// Package a exercises the lockorder analyzer. Each scenario uses its own
// struct type: keys are per-type ("Type.field"), so separate types keep the
// acquisition graphs independent.
package a

import "pvfsib/internal/sim"

// ab is the classic inverted pair.
type ab struct {
	mu  sim.Resource
	cpu sim.Resource
}

// lockAB acquires mu before cpu: with lockBA below, the pair forms a cycle
// and both witnessing acquisitions are flagged.
func lockAB(p *sim.Proc, s *ab) {
	s.mu.Acquire(p)
	s.cpu.Acquire(p) // want `acquiring ab.cpu while holding ab.mu creates a lock-order cycle`
	s.cpu.Release()
	s.mu.Release()
}

// lockBA acquires the same pair in the opposite order.
func lockBA(p *sim.Proc, s *ab) {
	s.cpu.Acquire(p)
	s.mu.Acquire(p) // want `acquiring ab.mu while holding ab.cpu creates a lock-order cycle`
	s.mu.Release()
	s.cpu.Release()
}

// reacquire grabs the same resource twice through the same expression: a
// second Acquire self-deadlocks once capacity runs out.
func reacquire(p *sim.Proc, s *ab) {
	s.mu.Acquire(p)
	s.mu.Acquire(p) // want `s.mu is acquired while already held`
	s.mu.Release()
	s.mu.Release()
}

// callthrough exercises the one-level summary edges.
type callthrough struct {
	mu  sim.Resource
	net sim.Resource
}

// helperNet acquires net: callers holding other locks inherit the edge
// through helperNet's one-level summary.
func helperNet(p *sim.Proc, s *callthrough) {
	s.net.Use(p, 1)
}

// viaSummary holds mu across a call that touches net: the summary adds the
// mu -> net edge, and netThenMu's opposite order closes the cycle.
func viaSummary(p *sim.Proc, s *callthrough) {
	s.mu.Acquire(p)
	defer s.mu.Release()
	helperNet(p, s) // want `acquiring callthrough.net while holding callthrough.mu creates a lock-order cycle`
}

// netThenMu orders net before mu, closing the cycle with viaSummary.
func netThenMu(p *sim.Proc, s *callthrough) {
	s.net.Acquire(p)
	s.mu.Acquire(p) // want `acquiring callthrough.mu while holding callthrough.net creates a lock-order cycle`
	s.mu.Release()
	s.net.Release()
}

// clean holds consistently ordered locks: no cycle, no findings.
type clean struct {
	mu  sim.Resource
	cpu sim.Resource
}

// goodNested holds mu around a cpu Use everywhere it nests (mirrors the
// client's runPart holding conn.mu across a cpu charge).
func goodNested(p *sim.Proc, s *clean) {
	s.mu.Acquire(p)
	defer s.mu.Release()
	//pvfslint:ok lockorder lock order clean.mu < clean.cpu everywhere
	s.cpu.Use(p, 10)
}

// goodDeferOrder releases through defer in LIFO order: same direction as
// goodNested, still consistent.
func goodDeferOrder(p *sim.Proc, s *clean) {
	s.mu.Acquire(p)
	defer s.mu.Release()
	//pvfslint:ok lockorder lock order clean.mu < clean.cpu everywhere
	s.cpu.Acquire(p)
	defer s.cpu.Release()
}

// goodHandOver releases before taking the next lock: nothing held when cpu
// is acquired, so no edge in either direction.
func goodHandOver(p *sim.Proc, s *clean) {
	s.cpu.Acquire(p)
	s.cpu.Release()
	s.mu.Acquire(p)
	s.mu.Release()
}

// deepchain exercises the transitive summaries: the second acquisition is
// buried two calls below the site that holds the first lock, so only the
// call-graph fixpoint (not a one-level summary) sees the edge.
type deepchain struct {
	disk sim.Resource
	wire sim.Resource
}

// deepWire is the bottom of the chain: the only function that touches wire.
func deepWire(p *sim.Proc, s *deepchain) {
	s.wire.Use(p, 1)
}

// midWire only forwards: it acquires nothing itself, so a one-level summary
// of midWire is empty and the edge below would be missed without the
// transitive fixpoint.
func midWire(p *sim.Proc, s *deepchain) {
	deepWire(p, s)
}

// diskThenDeepWire holds disk across the two-deep chain to wire.
func diskThenDeepWire(p *sim.Proc, s *deepchain) {
	s.disk.Acquire(p)
	defer s.disk.Release()
	midWire(p, s) // want `acquiring deepchain.wire while holding deepchain.disk creates a lock-order cycle`
}

// wireThenDisk orders the pair the other way, closing the cycle.
func wireThenDisk(p *sim.Proc, s *deepchain) {
	s.wire.Acquire(p)
	s.disk.Acquire(p) // want `acquiring deepchain.disk while holding deepchain.wire creates a lock-order cycle`
	s.disk.Release()
	s.wire.Release()
}

// recur is the SCC case: two mutually recursive functions, one of which
// acquires. The fixpoint converges and callers still inherit the edge.
type recur struct {
	lo sim.Resource
	hi sim.Resource
}

// pingAcq and pongAcq form a two-function cycle in the call graph; the
// summary of both must include recur.hi.
func pingAcq(p *sim.Proc, s *recur, depth int) {
	if depth <= 0 {
		s.hi.Use(p, 1)
		return
	}
	pongAcq(p, s, depth-1)
}

func pongAcq(p *sim.Proc, s *recur, depth int) {
	pingAcq(p, s, depth)
}

// loAroundRecursion holds lo across the recursive pair.
func loAroundRecursion(p *sim.Proc, s *recur) {
	s.lo.Acquire(p)
	defer s.lo.Release()
	pongAcq(p, s, 3) // want `acquiring recur.hi while holding recur.lo creates a lock-order cycle`
}

// hiThenLo closes the recur cycle from the other side.
func hiThenLo(p *sim.Proc, s *recur) {
	s.hi.Acquire(p)
	s.lo.Acquire(p) // want `acquiring recur.lo while holding recur.hi creates a lock-order cycle`
	s.lo.Release()
	s.hi.Release()
}

// exempt is the audited pair: one direction is flagged, the other is
// suppressed with a reason.
type exempt struct {
	x sim.Resource
	y sim.Resource
}

// orderXY establishes x before y.
func orderXY(p *sim.Proc, s *exempt) {
	s.x.Acquire(p)
	s.y.Acquire(p) // want `acquiring exempt.y while holding exempt.x creates a lock-order cycle`
	s.y.Release()
	s.x.Release()
}

// audited takes the pair the other way on a documented single-threaded
// path: the suppression eats the diagnostic at this witness.
func audited(p *sim.Proc, s *exempt) {
	s.y.Acquire(p)
	//pvfslint:ok lockorder recovery path runs single-threaded before workers start
	s.x.Acquire(p)
	s.x.Release()
	s.y.Release()
}
