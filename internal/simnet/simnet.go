// Package simnet models a switched cluster interconnect in virtual time.
//
// Every node connects to a full crossbar through a full-duplex link. A
// message from A to B occupies A's transmit engine and B's receive engine
// for its serialization time (size/bandwidth) and arrives one path latency
// after transmission begins (cut-through, not store-and-forward):
//
//	arrival = txStart + latency + size/bandwidth
//
// assuming both engines are idle; otherwise the message queues FIFO. This
// reproduces the two first-order properties the paper's experiments depend
// on: a fixed per-message startup cost and a shared per-port bandwidth.
//
// The default parameters are calibrated to the paper's InfiniBand testbed
// (Table 2): 6.0 µs one-way latency and 827 MB/s point-to-point bandwidth.
package simnet

import (
	"errors"
	"fmt"
	"time"

	"pvfsib/internal/metrics"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// MB is 2^20 bytes, the paper's definition of a megabyte.
const MB = 1 << 20

// Params describes the fabric.
type Params struct {
	// Bandwidth is the per-port link bandwidth in bytes per virtual second.
	Bandwidth float64
	// Latency is the one-way path latency (wire + switch + DMA setup).
	Latency sim.Duration
}

// DefaultParams matches the paper's Mellanox InfiniHost testbed.
func DefaultParams() Params {
	return Params{
		Bandwidth: 827 * MB,
		Latency:   6 * time.Microsecond,
	}
}

// SerializationTime returns the time the link is occupied by size bytes.
func (p Params) SerializationTime(size int) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.Duration(float64(size) / p.Bandwidth * 1e9)
}

// NodeID identifies a node on the fabric.
type NodeID int

// Message is one fabric transfer. Payload is opaque to the network.
// Messages are pooled per shard: Send allocates from the sender's shard
// pool and the consumer (the node's receiver, or whoever drains its Inbox)
// hands a finished message back via Network.Recycle, which returns it to
// the receiver's shard pool. Each pool is touched only by code running on
// its shard's worker thread, so pooling needs no locks; at one shard there
// is a single pool and any traffic pattern — including one-directional
// streams — recirculates the same structs allocation-free, exactly as the
// pre-shard global pool did.
type Message struct {
	From, To NodeID
	Size     int
	Payload  any
	SentAt   sim.Time // when transmission began
	ArriveAt sim.Time // when the last byte reached the receiver
	// Ctx carries the sender's packed trace context across the wire so
	// receive-side work lands under the same request.
	Ctx uint64

	dst  *Node    // delivery target, set while in flight
	next *Message // link in the receiver's staging FIFO
}

// Node is one port on the fabric.
type Node struct {
	ID    NodeID
	Name  string
	net   *Network
	group *sim.Group
	tx    *sim.Resource
	// Inbox holds fully received messages for a node with no receiver
	// attached (SetReceiver); its consumer must Recycle them.
	Inbox *sim.Mailbox

	// The receive engine: messages whose head has reached the port form a
	// FIFO in wire arrival order, linked through Message.next. The first is
	// being received — it is the argument of the pending rxDone event — and
	// the engine is idle exactly when rxTail is nil.
	rxTail  *Message
	rxSince sim.Time       // when the first message's reception began
	rxSpan  trace.Span     // its net.rx span
	recv    func(*Message) // takes received messages instead of Inbox

	shardIdx int // the group's shard; indexes the network's per-shard pools

	mx nodeMetrics // zero-value sinks unless SetMetrics attached a registry
}

// nodeMetrics is one port's instrument set. Every handle is a value whose
// zero state is a no-op sink, so the fabric's hot paths sample
// unconditionally. All series belong to the node's own name and are only
// touched by the node's events: tx-side samples run on the sender's
// shard, and the staged-message gauge moves only in the receiver's own
// arrival and completion events (deliverStage, rxDone).
type nodeMetrics struct {
	txBytes metrics.Counter // payload bytes accepted for transmission
	txBusy  metrics.Busy    // transmit engine occupancy
	rxBusy  metrics.Busy    // receive engine occupancy
	txQueue metrics.Gauge   // senders queued on (or holding) the transmit engine
	staged  metrics.Gauge   // messages staged toward this receiver, not yet received
}

func (node *Node) attachMetrics(mx *metrics.Registry) {
	node.mx = nodeMetrics{
		txBytes: mx.Counter(node.Name, "net.tx.bytes"),
		txBusy:  mx.Busy(node.Name, "net.tx.busy"),
		rxBusy:  mx.Busy(node.Name, "net.rx.busy"),
		txQueue: mx.Gauge(node.Name, "net.tx.queue"),
		staged:  mx.Gauge(node.Name, "net.inflight"),
	}
}

// FaultPolicy is consulted once per message before transmission. It is the
// fabric's hook into the fault plane (internal/fault implements it): drop
// makes Send fail with ErrDropped — the sender-visible shape of a reliable
// connection exhausting its retries during a partition — and extra is
// added sender-side stall time (charged before the transmit engine is
// acquired, so per-link message ordering is preserved). Node ids are plain
// ints so implementations need not import this package.
type FaultPolicy interface {
	SendVerdict(now sim.Time, from, to int, size int) (drop bool, extra sim.Duration)
}

// ErrDropped is returned by Send when the fault policy partitions the link.
var ErrDropped = errors.New("simnet: message dropped (link partitioned)")

// shardPool is one shard's share of the fabric's pooled state. The aux slot
// holds the ib adapters' wire-record and scratch-buffer pools (ib's
// wirePoolOf is its only reader), so every pool in the cell follows the
// same discipline: owned by one worker thread, lock-free.
type shardPool struct {
	msgs sim.FreeList[Message]
	aux  any
}

// Network is the crossbar plus all attached nodes.
type Network struct {
	eng    *sim.Engine
	params Params
	nodes  []*Node
	faults FaultPolicy
	tracer *trace.Tracer
	mx     *metrics.Registry
	pools  []shardPool // indexed by shard; fixed at New

	// BytesSent accumulates all payload bytes accepted for transmission,
	// indexed by sender (each slot is written only by its sender's group).
	BytesSent []int64
}

// ShardAux returns the opaque per-shard storage slot for higher layers.
// Callers must only touch the slot from code running on shard i.
func (n *Network) ShardAux(i int) *any { return &n.pools[i].aux }

// Recycle returns a delivered message to the receiving shard's free list.
// The consumer calls it once the payload has been handed off; the message
// must not be touched afterwards. The consumer runs on the receiver's
// shard, so the pool access is unlocked; request/reply flows recirculate
// the structs between the two shard pools.
func (n *Network) Recycle(m *Message) {
	if m.dst == nil {
		sim.Failf("simnet: message recycled twice")
	}
	pool := &n.pools[m.dst.shardIdx]
	m.Payload, m.dst, m.Ctx, m.next = nil, nil, 0, nil
	pool.msgs.Put(m)
}

// Census reports the messages taken from each shard's free list and not
// recycled into it; their sum is the messages out of the fabric's pools.
func (n *Network) Census(add func(pool string, out int64)) {
	for i := range n.pools {
		add("simnet.messages", n.pools[i].msgs.Out())
	}
}

// SetFaults attaches (or, with nil, detaches) the fault policy. With no
// policy Send consults nothing and schedules nothing extra — the zero-
// overhead guarantee for fault-free runs.
func (n *Network) SetFaults(f FaultPolicy) { n.faults = f }

// SetTracer attaches (or, with nil, detaches) the span tracer. With no
// tracer Send and the receive callbacks record nothing and allocate
// nothing — the same zero-overhead contract the fault hook keeps.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tracer = tr }

// SetMetrics attaches (or, with nil, detaches) the metrics registry:
// every node gets per-port byte counters, tx/rx busy series, and
// queue-depth gauges. Each node's name must already be registered. With
// no registry the handles are zero-value sinks — sampling costs one nil
// check. Call while the engine is idle.
func (n *Network) SetMetrics(mx *metrics.Registry) {
	n.mx = mx
	for _, node := range n.nodes {
		node.attachMetrics(mx)
	}
}

// New creates a fabric on the engine with the given parameters. The path
// latency is the minimum delay of any cross-node (and therefore any possible
// cross-shard) interaction, so it is declared to the engine as conservative
// lookahead for sharded execution.
func New(eng *sim.Engine, params Params) *Network {
	if params.Bandwidth <= 0 {
		sim.Failf("simnet: bandwidth must be positive")
	}
	eng.SetLookahead(params.Latency)
	return &Network{eng: eng, params: params, pools: make([]shardPool, eng.NumShards())}
}

// Lookahead returns the fabric's contribution to the engine's conservative
// synchronization window: the one-way path latency, the soonest any message
// can take effect on another node.
func (n *Network) Lookahead() sim.Duration { return n.params.Latency }

// Params returns the fabric parameters.
func (n *Network) Params() Params { return n.params }

// Engine returns the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// AddNode attaches a new node in the engine's default group.
func (n *Network) AddNode(name string) *Node {
	return n.AddNodeIn(n.eng.DefaultGroup(), name)
}

// AddNodeIn attaches a new node whose receive callbacks — and, by the
// layering contract, every process and timer of the host that owns the
// node — run in group g. Group-per-node placement is what lets a sharded
// engine run nodes in parallel.
func (n *Network) AddNodeIn(g *sim.Group, name string) *Node {
	if g.ShardIndex() >= len(n.pools) {
		sim.Failf("simnet: node %q on shard %d but the fabric was built for %d shards (call Engine.SetShards before simnet.New)",
			name, g.ShardIndex(), len(n.pools))
	}
	node := &Node{
		ID:       NodeID(len(n.nodes)),
		Name:     name,
		net:      n,
		group:    g,
		shardIdx: g.ShardIndex(),
		tx:       n.eng.NewResource(fmt.Sprintf("%s.tx", name), 1),
		Inbox:    n.eng.NewMailbox(fmt.Sprintf("%s.inbox", name)),
	}
	n.nodes = append(n.nodes, node)
	n.BytesSent = append(n.BytesSent, 0)
	if n.mx != nil {
		node.attachMetrics(n.mx)
	}
	return node
}

// SetReceiver makes fn the sink of every message the node receives, in
// place of Inbox: fn runs inside the receive event, on the node's group, at
// the instant the last byte arrives. It must not block, and it owns the
// message (Recycle). An adapter attaches itself once, before traffic starts.
func (node *Node) SetReceiver(fn func(*Message)) { node.recv = fn }

// Group returns the group the node's host runs in.
func (node *Node) Group() *sim.Group { return node.group }

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Engine returns the simulation engine the node's fabric runs on.
func (node *Node) Engine() *sim.Engine { return node.net.eng }

// Network returns the fabric this node is attached to.
func (node *Node) Network() *Network { return node.net }

// NumNodes reports how many nodes are attached.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Send transmits size bytes with the given payload from this node to dst.
// The calling process blocks for the transmit-side serialization time; the
// message lands in dst's Inbox after the path latency plus receive-side
// serialization. Messages between the same pair of nodes are delivered in
// send order. When a fault policy is attached it may stall the sender
// (latency spike) or drop the message, in which case Send returns
// ErrDropped after charging the serialization time the failed retries
// consumed; without a policy Send never fails.
func (node *Node) Send(p *sim.Proc, dst NodeID, size int, payload any) error {
	if dst < 0 || int(dst) >= len(node.net.nodes) {
		sim.Failf("simnet: send to unknown node %d", dst)
	}
	sp := node.net.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), node.Name, "net.tx", trace.StageWire)
	sp.SetBytes(int64(size))
	if fp := node.net.faults; fp != nil {
		drop, extra := fp.SendVerdict(p.Now(), int(node.ID), int(dst), size)
		if extra > 0 {
			p.Sleep(extra)
		}
		if drop {
			// The reliable connection burned its retries: the wire time was
			// consumed but the message never arrived.
			node.mx.txQueue.Add(p.Now(), 1)
			node.tx.Acquire(p)
			tx0 := p.Now()
			p.Sleep(node.net.params.SerializationTime(size))
			node.tx.Release()
			node.mx.txQueue.Add(p.Now(), -1)
			node.mx.txBusy.AddSpan(tx0, p.Now())
			sp.EndErr(p.Now(), ErrDropped)
			return ErrDropped
		}
	}
	n := node.net
	// Send runs on the sender's shard, so its free list is unlocked.
	m := n.pools[node.shardIdx].msgs.Take()
	m.From, m.To, m.Size, m.Payload = node.ID, dst, size, payload
	m.ArriveAt = 0
	m.Ctx = uint64(sp.Ctx())
	if m.Ctx == 0 {
		m.Ctx = p.TraceCtx()
	}
	node.mx.txQueue.Add(p.Now(), 1)
	node.tx.Acquire(p)
	m.SentAt = p.Now()
	n.BytesSent[node.ID] += int64(size)
	node.mx.txBytes.Add(m.SentAt, int64(size))
	m.dst = n.nodes[dst]
	// The head of the message reaches the receiver one latency after
	// transmission starts; receive-side serialization happens there.
	// deliverStage is package-level so the hot path allocates no closure.
	// The callback executes on the destination node's group — this is the
	// engine's cross-shard hand-off point, and the latency charged here is
	// exactly the lookahead that makes the hand-off conservative.
	p.AfterCallOn(m.dst.group, n.params.Latency, deliverStage, m)
	p.Sleep(n.params.SerializationTime(size))
	node.tx.Release()
	node.mx.txQueue.Add(p.Now(), -1)
	node.mx.txBusy.AddSpan(m.SentAt, p.Now())
	sp.End(p.Now())
	return nil
}

// deliverStage is the closure-free arrival callback: one path latency after
// transmission started the message joins the receiver's staging FIFO, and
// an idle receive engine starts on it at once. It executes on the
// receiver's shard, which owns everything it touches.
func deliverStage(v any) {
	m := v.(*Message)
	node := m.dst
	node.mx.staged.Add(node.group.Now(), 1)
	tail := node.rxTail
	node.rxTail = m
	if tail != nil {
		tail.next = m
		return
	}
	node.rxBegin(m)
}

// rxBegin starts receiving the first staged message: the port is occupied
// for the message's serialization time.
func (node *Node) rxBegin(m *Message) {
	now := node.group.Now()
	node.mx.staged.Add(now, -1)
	node.rxSpan = node.net.tracer.Start(now, trace.Ctx(m.Ctx), node.Name, "net.rx", trace.StageWire)
	node.rxSpan.SetBytes(int64(m.Size))
	node.rxSince = now
	node.group.AfterCall(node.net.params.SerializationTime(m.Size), rxDone, m)
}

// rxDone is the completion callback of the receive engine: the last byte of
// the first staged message is in. The message goes to the node's receiver
// (or Inbox) and the next one, if any, starts.
func rxDone(v any) {
	m := v.(*Message)
	node := m.dst
	m.ArriveAt = node.group.Now()
	node.mx.rxBusy.AddSpan(node.rxSince, m.ArriveAt)
	node.rxSpan.End(m.ArriveAt)
	next := m.next
	if next == nil {
		node.rxTail = nil
	}
	if node.recv != nil {
		node.recv(m)
	} else {
		node.Inbox.Send(m)
	}
	if next != nil {
		node.rxBegin(next)
	}
}
