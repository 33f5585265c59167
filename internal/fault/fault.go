// Package fault is the deterministic fault plane for the simulated cluster.
//
// A Plan is pure data: probabilistic fault rates (NIC work-request
// completion errors, registration failures, disk errors and slowdowns) and
// scheduled fault windows (link latency spikes, link partitions, I/O-daemon
// crashes). An Injector compiles a Plan into the runtime object the
// substrate layers consult: simnet asks it about every message before
// transmission, ib about every posted work request and registration
// attempt, disk about every transfer. Each registered node draws from its
// own seeded generator (seeded by plan seed and node name), so a node's
// fault schedule is a pure function of (that node's workload, plan, seed)
// — independent of how other nodes' events interleave, which is what keeps
// the schedule byte-identical at any engine shard count. Unregistered
// callers share a root stream, which is fine only under a single-shard
// engine. Per-node state also means the injector needs no locks: every
// stream and counter set is touched only from its node's shard.
//
// The package deliberately imports only internal/sim: the substrate layers
// each declare the small interface they need (simnet.FaultPolicy,
// ib.FaultInjector, disk.FaultInjector) and *Injector satisfies all of them
// structurally. internal/pvfs owns the wiring (Cluster.AttachFaults) and
// the scheduled crash/restart orchestration.
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pvfsib/internal/sim"
)

// Wildcard matches any node in a Spike or Cut endpoint.
const Wildcard = -1

// Spike is a window of added per-message sender-side delay on a link. The
// delay models RC retransmission stalls, so it is charged on the sender
// before the transmit engine is acquired and never reorders messages.
type Spike struct {
	// From and To are fabric node ids; Wildcard matches any node. A spike
	// applies to messages in either direction between the endpoints.
	From, To int
	// At and Dur bound the window in virtual time from injector attach.
	At, Dur sim.Duration
	// Extra is the added delay per affected message.
	Extra sim.Duration
}

// Cut is a bidirectional link partition: every message between the two
// endpoints during the window is dropped (the sender sees a retry-exhaustion
// completion error, as a reliable-connection QP would report).
type Cut struct {
	// A and B are fabric node ids; Wildcard matches any node.
	A, B int
	// At and Dur bound the partition window; the link heals at At+Dur.
	At, Dur sim.Duration
}

// Crash schedules one I/O-daemon crash and restart. While down, the daemon
// discards all traffic and its in-flight requests die; on restart it
// re-registers with the metadata manager and serves again. The daemon's
// local file system (and kernel page cache) survive — this models a daemon
// restart, not a node power loss.
type Crash struct {
	// Server is the I/O server index (not a fabric node id).
	Server int
	// At is when the daemon dies; Down is how long it stays dead.
	At, Down sim.Duration
}

// Plan is a complete, declarative fault scenario.
type Plan struct {
	// Seed drives every probabilistic decision. Two runs of the same
	// (workload, plan, seed) produce identical fault schedules.
	Seed int64

	// WRErrorRate is the per-work-request probability of a completion
	// error (CQ status != success). Control QPs (metadata, MPI) are exempt.
	WRErrorRate float64
	// RegFailRate is the per-attempt probability that a memory
	// registration fails (pinning pressure, as NP-RDMA-style stacks see).
	RegFailRate float64
	// DiskErrorRate is the per-transfer probability of a transient media
	// error, retried internally by the device at DiskErrorPenalty each.
	DiskErrorRate float64
	// DiskErrorPenalty is the added device time per transient error
	// (default 2 ms).
	DiskErrorPenalty sim.Duration
	// DiskSlowRate is the per-transfer probability of a slowdown event
	// (recalibration, remapped sector) costing DiskSlowPenalty.
	DiskSlowRate float64
	// DiskSlowPenalty is the added device time per slowdown (default 1 ms).
	DiskSlowPenalty sim.Duration

	Spikes  []Spike
	Cuts    []Cut
	Crashes []Crash
}

// Empty reports whether the plan injects nothing.
func (pl Plan) Empty() bool {
	return pl.WRErrorRate == 0 && pl.RegFailRate == 0 &&
		pl.DiskErrorRate == 0 && pl.DiskSlowRate == 0 &&
		len(pl.Spikes) == 0 && len(pl.Cuts) == 0 && len(pl.Crashes) == 0
}

// Counters accumulates every injected fault, the ground truth a recovery
// test compares its observed retries against.
type Counters struct {
	WRErrors    int64 // work requests completed in error
	Drops       int64 // messages dropped by a partition
	Spiked      int64 // messages delayed by a spike window
	RegFailures int64 // injected registration failures
	DiskErrors  int64 // injected transient disk errors
	DiskSlow    int64 // injected disk slowdown events
}

// String summarizes the counters on one line.
func (c Counters) String() string {
	return fmt.Sprintf("wr-err=%d drops=%d spiked=%d reg-fail=%d disk-err=%d disk-slow=%d",
		c.WRErrors, c.Drops, c.Spiked, c.RegFailures, c.DiskErrors, c.DiskSlow)
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	c.WRErrors += o.WRErrors
	c.Drops += o.Drops
	c.Spiked += o.Spiked
	c.RegFailures += o.RegFailures
	c.DiskErrors += o.DiskErrors
	c.DiskSlow += o.DiskSlow
}

// stream is one node's private draw source and fault tally.
type stream struct {
	rng *rand.Rand
	c   Counters
}

// Rands keeps one generator per stream across injectors, so a caller that
// attaches plan after plan reseeds them instead of building a fresh source
// (about 4.9 kB) per node per plan. A reseeded generator draws exactly what
// a fresh one would. Building an injector reseeds the generators of those
// built before it from the same Rands, so only the last may draw; their
// counters stay their own. The zero value is ready to use.
type Rands struct{ byName map[string]*rand.Rand }

// seeded returns name's generator reseeded with seed, made on first use.
func (rs *Rands) seeded(name string, seed int64) *rand.Rand {
	r := rs.byName[name]
	if r == nil {
		if rs.byName == nil {
			rs.byName = make(map[string]*rand.Rand)
		}
		r = rand.New(rand.NewSource(seed))
		rs.byName[name] = r
	}
	r.Seed(seed)
	return r
}

// Injector is a compiled Plan: the object the substrate layers consult.
// Register every node (and RegisterLinks the fabric) before the run
// starts; after that the maps are read-only and each node's stream is
// touched only from that node's events, so the injector is safe under a
// sharded engine with no locking.
type Injector struct {
	plan  Plan
	rands *Rands     // where the streams' generators come from
	rng   *rand.Rand // root stream, for draws by unregistered nodes

	streams map[string]*stream // per registered node, immutable at runtime
	order   []*stream          // registration order, for Totals
	links   []Counters         // drop/spike tallies per sender fabric id

	// Counters tallies faults charged to the root stream (unregistered
	// nodes and links). Registered runs should read Totals instead.
	Counters Counters
}

// NewInjector compiles the plan, applying defaults for zero penalty fields.
func NewInjector(plan Plan) *Injector { return NewInjectorFrom(plan, new(Rands)) }

// NewInjectorFrom is NewInjector with its streams' generators, the root
// stream's (named "") and every registered node's, taken from rs and
// reseeded.
func NewInjectorFrom(plan Plan, rs *Rands) *Injector {
	if plan.DiskErrorPenalty == 0 {
		plan.DiskErrorPenalty = 2 * time.Millisecond
	}
	if plan.DiskSlowPenalty == 0 {
		plan.DiskSlowPenalty = time.Millisecond
	}
	return &Injector{
		plan:    plan,
		rands:   rs,
		rng:     rs.seeded("", plan.Seed),
		streams: make(map[string]*stream),
	}
}

// fnv64 is FNV-1a, used to fold a node name into its stream seed.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Register gives node its own draw stream and counter set, seeded from the
// plan seed and the node name. Call before the simulation runs (the stream
// map is read-only afterwards); registering the same name twice is a no-op
// so re-attaching a plan stays simple.
func (in *Injector) Register(node string) {
	if _, ok := in.streams[node]; ok {
		return
	}
	st := &stream{rng: in.rands.seeded(node, in.plan.Seed^int64(fnv64(node)))}
	in.streams[node] = st
	in.order = append(in.order, st)
}

// RegisterLinks sizes the per-sender link counters for fabric node ids
// [0, n). SendVerdict runs on the sender's shard, so tallying per sender
// keeps partition and spike counts race-free.
func (in *Injector) RegisterLinks(n int) {
	if n > len(in.links) {
		in.links = append(in.links, make([]Counters, n-len(in.links))...)
	}
}

// Totals sums the fault tallies across the root stream, every registered
// node, and every link — the ground truth a recovery test compares its
// observed retries against.
func (in *Injector) Totals() Counters {
	t := in.Counters
	for _, st := range in.order {
		t.add(st.c)
	}
	for i := range in.links {
		t.add(in.links[i])
	}
	return t
}

// draws returns the rng and counter set for one node's probabilistic draw.
func (in *Injector) draws(node string) (*rand.Rand, *Counters) {
	if st, ok := in.streams[node]; ok {
		return st.rng, &st.c
	}
	return in.rng, &in.Counters
}

// linkCounters returns the tally for messages sent by fabric node `from`.
func (in *Injector) linkCounters(from int) *Counters {
	if from >= 0 && from < len(in.links) {
		return &in.links[from]
	}
	return &in.Counters
}

// Plan returns the compiled plan.
func (in *Injector) Plan() Plan { return in.plan }

// matches reports whether the (a, b) endpoint pattern covers the (from, to)
// link in either direction.
func matches(a, b, from, to int) bool {
	dir := func(x, y int) bool {
		return (x == Wildcard || x == from) && (y == Wildcard || y == to)
	}
	return dir(a, b) || dir(b, a)
}

func inWindow(now sim.Time, at, dur sim.Duration) bool {
	return now >= sim.Time(at) && now < sim.Time(at+dur)
}

// SendVerdict implements simnet.FaultPolicy: consulted once per message
// before transmission. drop surfaces to the sender as a completion error;
// extra is sender-side stall time (ordering-preserving).
func (in *Injector) SendVerdict(now sim.Time, from, to int, size int) (drop bool, extra sim.Duration) {
	for _, c := range in.plan.Cuts {
		if inWindow(now, c.At, c.Dur) && matches(c.A, c.B, from, to) {
			in.linkCounters(from).Drops++
			return true, 0
		}
	}
	for _, s := range in.plan.Spikes {
		if inWindow(now, s.At, s.Dur) && matches(s.From, s.To, from, to) {
			in.linkCounters(from).Spiked++
			extra += s.Extra
		}
	}
	return false, extra
}

// WRError implements ib.FaultInjector: drawn once per posted work request
// on non-control QPs.
func (in *Injector) WRError(now sim.Time, node string) bool {
	if in.plan.WRErrorRate <= 0 {
		return false
	}
	rng, c := in.draws(node)
	if rng.Float64() < in.plan.WRErrorRate {
		c.WRErrors++
		return true
	}
	return false
}

// RegFail implements ib.FaultInjector: drawn once per dynamic registration
// attempt.
func (in *Injector) RegFail(now sim.Time, node string) bool {
	if in.plan.RegFailRate <= 0 {
		return false
	}
	rng, c := in.draws(node)
	if rng.Float64() < in.plan.RegFailRate {
		c.RegFailures++
		return true
	}
	return false
}

// DiskFault implements disk.FaultInjector: returns added device time for
// one transfer (slowdowns plus internally-retried transient errors) on the
// named device.
func (in *Injector) DiskFault(now sim.Time, node string, read bool, size int64) sim.Duration {
	var extra sim.Duration
	rng, c := in.draws(node)
	if in.plan.DiskErrorRate > 0 && rng.Float64() < in.plan.DiskErrorRate {
		c.DiskErrors++
		extra += in.plan.DiskErrorPenalty
	}
	if in.plan.DiskSlowRate > 0 && rng.Float64() < in.plan.DiskSlowRate {
		c.DiskSlow++
		extra += in.plan.DiskSlowPenalty
	}
	return extra
}

// Describe renders the plan for `pvfsctl fault list`.
func (pl Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d wr-rate=%g reg-rate=%g disk-err=%g disk-slow=%g\n",
		pl.Seed, pl.WRErrorRate, pl.RegFailRate, pl.DiskErrorRate, pl.DiskSlowRate)
	for _, s := range pl.Spikes {
		fmt.Fprintf(&b, "spike %d<->%d at=%v dur=%v extra=%v\n", s.From, s.To, s.At, s.Dur, s.Extra)
	}
	for _, c := range pl.Cuts {
		fmt.Fprintf(&b, "cut %d<->%d at=%v dur=%v\n", c.A, c.B, c.At, c.Dur)
	}
	for _, c := range pl.Crashes {
		fmt.Fprintf(&b, "crash io%d at=%v down=%v\n", c.Server, c.At, c.Down)
	}
	return b.String()
}
