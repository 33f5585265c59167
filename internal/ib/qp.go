package ib

import (
	"fmt"

	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/trace"
)

// SGE is one scatter/gather entry: a contiguous segment of local memory.
type SGE struct {
	Addr mem.Addr
	Len  int64
}

// Extent returns the segment as a memory extent.
func (s SGE) Extent() mem.Extent { return mem.Extent{Addr: s.Addr, Len: s.Len} }

// TotalLen sums the lengths of a scatter/gather list.
func TotalLen(sges []SGE) int64 {
	var n int64
	for _, s := range sges {
		n += s.Len
	}
	return n
}

// HCA is one node's host channel adapter.
type HCA struct {
	node   *simnet.Node
	space  *mem.AddrSpace
	params Params

	mrs         map[Key]*MR
	freeMRs     sim.FreeList[MR] // deregistered regions' records
	nextKey     Key
	pinnedBytes int64

	qps        map[uint32]*QP
	nextQPNum  uint32
	nextReadID uint64
	reads      map[uint64]*sim.Mailbox
	readMBs    sim.FreeList[sim.Mailbox] // drained reply mailboxes, reused across reads

	faults  FaultInjector
	discard Discarder
	tracer  *trace.Tracer
	mx      hcaMetrics
	down    bool

	// The read responder (respond) and the arrivals it holds up. serving is
	// the validated read request the responder has been handed, nil while it
	// is idle; backlog is every message received since, in arrival order.
	serving *simnet.Message
	backlog []*simnet.Message
	wakeup  *sim.Cond

	// wp is this HCA's shard's pool bundle (wire records + scratch
	// buffers), shared by every HCA whose node runs on the same shard.
	wp *wirePool

	// Counters accumulates operation counts for this HCA.
	Counters Counters

	// OnRDMAWriteApplied, if set, is called (in virtual time, at the
	// instant the payload lands in host memory) for every inbound RDMA
	// write — a measurement hook for latency experiments.
	OnRDMAWriteApplied func(raddr mem.Addr, n int64)
}

// NewHCA attaches an HCA to a fabric node and its host address space: the
// adapter becomes the node's receiver (receive), and its one process,
// hca[node], is the read responder (respond).
func NewHCA(node *simnet.Node, space *mem.AddrSpace, params Params) *HCA {
	h := &HCA{
		node:   node,
		space:  space,
		params: params,
		mrs:    make(map[Key]*MR),
		qps:    make(map[uint32]*QP),
		reads:  make(map[uint64]*sim.Mailbox),
	}
	h.wp = wirePoolOf(node.Network(), node.Group().ShardIndex())
	h.wakeup = h.engine().NewCond()
	h.SetMetrics(nil)
	node.SetReceiver(h.receive)
	h.engine().GoDaemonOn(node.Group(), fmt.Sprintf("hca[%s]", node.Name), h.respond)
	return h
}

func (h *HCA) engine() *sim.Engine { return h.node.Engine() }

// Node returns the fabric node.
func (h *HCA) Node() *simnet.Node { return h.node }

// NodeID returns the fabric node id.
func (h *HCA) NodeID() simnet.NodeID { return h.node.ID }

// Space returns the host address space.
func (h *HCA) Space() *mem.AddrSpace { return h.space }

// Params returns the timing model.
func (h *HCA) Params() Params { return h.params }

// QP is one endpoint of a connected (reliable) queue pair.
type QP struct {
	hca       *HCA
	num       uint32
	remote    simnet.NodeID
	remoteNum uint32
	inbox     *sim.Mailbox // received channel-semantics messages
	state     QPState
	control   bool // exempt from probabilistic WR-error injection
}

// Connect creates a queue pair between two HCAs and returns both endpoints.
func Connect(a, b *HCA) (*QP, *QP) {
	qa := a.newQP()
	qb := b.newQP()
	qa.remote, qa.remoteNum = b.node.ID, qb.num
	qb.remote, qb.remoteNum = a.node.ID, qa.num
	return qa, qb
}

func (h *HCA) newQP() *QP {
	h.nextQPNum++
	q := &QP{
		hca:   h,
		num:   h.nextQPNum,
		inbox: h.engine().NewMailbox(fmt.Sprintf("qp[%s.%d]", h.node.Name, h.nextQPNum)),
	}
	h.qps[q.num] = q
	return q
}

// HCA returns the adapter owning this endpoint.
func (q *QP) HCA() *HCA { return q.hca }

// Wire message formats. Sizes on the wire are payload plus a small header.
const wireHeader = 32

// wire is every message one adapter sends another, told apart by kind: a
// channel-semantics send, an RDMA write with its gathered bytes, an RDMA read
// request and its response. One type rather than one per kind is what keeps
// the shards' lists level: a request's record leaves the initiator's shard
// and its reply's record comes back to it.
type wire struct {
	kind wireKind
	// dstQP, size and payload are a send's: the remote queue pair, the
	// sender-declared size and what the receiver's Recv returns.
	dstQP   uint32
	size    int
	payload any
	// raddr and rkey are the remote region of a write or a read request;
	// id pairs a read request (of size bytes, from initiator) with its
	// response.
	raddr     mem.Addr
	rkey      Key
	id        uint64
	initiator simnet.NodeID
	// data is a write's gathered bytes or a cross-shard read response's
	// snapshot, a scratch buffer the record owns until it is recycled.
	data []byte
	// src is the responder of a same-shard read response, which carries no
	// bytes: it names them by raddr, rkey and size, and the initiator
	// copies them out of src's memory on arrival (RDMARead).
	src *HCA
}

// wireKind says which message a wire record is.
type wireKind uint8

const (
	// wireFree marks a record in a free list; nothing on the wire carries it.
	wireFree wireKind = iota
	wireSend
	wireWrite
	wireReadReq
	wireReadResp
)

// wirePool is one shard's free list of wire records plus the scratch pool
// for RDMA gather and read-response staging copies. It lives in the
// fabric's per-shard aux slot, shared by every HCA on the shard: a record or
// buffer is taken on the sender's shard and released on the consumer's, and
// each list is only ever touched from its own shard's worker thread, so no
// locking is needed.
type wirePool struct {
	scratch mem.ScratchPool
	wires   sim.FreeList[wire]
}

// wirePoolOf returns shard i's pool bundle, making it on first use. It is
// the only reader of the fabric's per-shard slot, which holds nothing else.
func wirePoolOf(net *simnet.Network, i int) *wirePool {
	aux := net.ShardAux(i)
	if *aux == nil {
		*aux = new(wirePool)
	}
	return (*aux).(*wirePool)
}

// takeWire returns a wire record of the given kind from h's shard's list;
// the sender sets every field the kind uses.
func (h *HCA) takeWire(kind wireKind) *wire {
	w := h.wp.wires.Take()
	w.kind = kind
	return w
}

// putWire recycles a consumed wire record, and the staging buffer it
// carries, into h's shard's pools. h must be the HCA on whose shard the
// caller is executing.
func (h *HCA) putWire(w *wire) {
	if w.kind == wireFree {
		sim.Failf("ib: %s: wire record recycled twice", h.node.Name)
	}
	h.scratch().Put(w.data)
	// The fields a kind does not use are never read, so only what the
	// record references is cleared.
	w.kind, w.payload, w.data, w.src = wireFree, nil, nil, nil
	h.wp.wires.Put(w)
}

// receive is the adapter's inbound path, run inside the node's receive
// event: it demultiplexes the message to its queue pair, applies an RDMA
// write to host memory or completes an outstanding read. Nothing here can
// wait; the one message that needs waiting for, a valid RDMA read request,
// goes to the responder, and while the responder is busy every arrival
// queues behind it — the inbound engine is one pipeline, so a read being
// served holds up whatever was received after it.
func (h *HCA) receive(m *simnet.Message) {
	if h.serving != nil {
		h.backlog = append(h.backlog, m)
		return
	}
	if h.deliver(m) {
		h.serving = m
		h.wakeup.Signal()
		return
	}
	h.node.Network().Recycle(m)
}

// respond is the read responder, the adapter's only process. It serves the
// read request receive handed it, then everything that arrived meanwhile,
// in arrival order and in its own context — a further read request it
// serves itself — and goes idle once the backlog is empty.
func (h *HCA) respond(p *sim.Proc) {
	net := h.node.Network()
	for {
		for h.serving == nil {
			h.wakeup.Wait(p)
		}
		h.serveRead(p, h.serving)
		net.Recycle(h.serving)
		// serveRead blocks, so the backlog may grow while it is drained.
		for i := 0; i < len(h.backlog); i++ {
			m := h.backlog[i]
			h.backlog[i] = nil
			if h.deliver(m) {
				h.serveRead(p, m)
			}
			net.Recycle(m)
		}
		h.backlog = h.backlog[:0]
		h.serving = nil
	}
}

// scratch is the staging-buffer pool of this HCA's shard, shared by every
// HCA on the shard (single-threaded under the shard's worker).
func (h *HCA) scratch() *mem.ScratchPool { return &h.wp.scratch }

// PoolHostCost returns what the staging pools of a fabric's adapters, one per
// engine shard, have cost the host so far.
func PoolHostCost(net *simnet.Network, shards int) sim.HostCost {
	var hc sim.HostCost
	for i := 0; i < shards; i++ {
		hc.Add(wirePoolOf(net, i).scratch.HostCost())
	}
	return hc
}

// Census reports, shard by shard, the wire records and staging buffers a
// fabric's adapters took from their pools and did not recycle.
func Census(net *simnet.Network, shards int, add func(pool string, out int64)) {
	for i := 0; i < shards; i++ {
		wp := wirePoolOf(net, i)
		add("ib.wires", wp.wires.Out())
		add("ib.scratch", wp.scratch.Out())
	}
}

// Census reports the adapter's reply mailboxes taken and not recycled, and
// its region records neither registered nor free.
func (h *HCA) Census(add func(pool string, out int64)) {
	add("ib.read-mailboxes", h.readMBs.Out())
	add("ib.mrs", h.freeMRs.Out()-int64(len(h.mrs)))
}

// deliver disposes of one inbound wire message without waiting, at the
// instant it is called. It reports true for the one message it cannot
// finish: a valid RDMA read request, which the caller must serve
// (serveRead); every other message is consumed.
//
// With a fault plane attached, anomalies that are hard protocol-invariant
// violations in a fault-free run — an RDMA against a deregistered region, a
// released, unbacked buffer (BufPool) or one lent again since its key was
// (a stale generation), a read response nobody is waiting for — become
// expected leftovers of a failed epoch (the peer timed out, reset, and
// released its buffers) and are discarded instead of failing the
// simulation. A down adapter discards everything: in-flight requests to a
// crashed daemon die silently.
func (h *HCA) deliver(m *simnet.Message) (read bool) {
	w := m.Payload.(*wire)
	if h.down {
		h.discardWire(w)
		return false
	}
	switch w.kind {
	case wireSend:
		q, ok := h.qps[w.dstQP]
		if !ok {
			sim.Failf("ib: %s: send to unknown QP %d", h.node.Name, w.dstQP)
		}
		q.inbox.Send(w)
	case wireWrite:
		err := h.checkRemote(w.rkey, mem.Extent{Addr: w.raddr, Len: int64(len(w.data))})
		if err == nil {
			err = h.space.Write(w.raddr, w.data)
		}
		if err != nil {
			if h.faults != nil {
				h.putWire(w)
				return false // stale write from a failed epoch; NAK and drop
			}
			sim.Failf("ib: %s: RDMA write fault: %v", h.node.Name, err)
		}
		if h.OnRDMAWriteApplied != nil {
			h.OnRDMAWriteApplied(w.raddr, int64(len(w.data)))
		}
		h.putWire(w)
	case wireReadReq:
		if err := h.checkRemote(w.rkey, mem.Extent{Addr: w.raddr, Len: int64(w.size)}); err != nil {
			if h.faults != nil {
				h.putWire(w)
				return false // stale read from a failed epoch; initiator times out
			}
			sim.Failf("ib: %s: RDMA read fault: %v", h.node.Name, err)
		}
		return true
	case wireReadResp:
		mb, ok := h.reads[w.id]
		if !ok {
			if h.faults != nil {
				h.putWire(w)
				return false // response for a read that already timed out
			}
			sim.Failf("ib: %s: RDMA read response for unknown id %d", h.node.Name, w.id)
		}
		delete(h.reads, w.id)
		// The receive event runs on the initiator's own shard, so the gauge
		// decrement stays node-local.
		h.mx.outReads.Add(h.node.Group().Now(), -1)
		// The wire record itself travels the last hop: a pointer crosses
		// the mailbox without boxing, where the bare []byte would allocate
		// an interface header per read. The initiator unwraps and recycles.
		mb.Send(w)
	default:
		sim.Failf("ib: %s: wire record of kind %d", h.node.Name, w.kind)
	}
	return false
}

// serveRead answers a read request deliver found valid, waits out the
// turnaround and transmits the response. To an initiator on this HCA's
// engine shard the response names the region, and the initiator copies it
// on arrival; to one on another shard, whose thread cannot read this memory
// then, it carries a snapshot. Under faults a read of a buffer released
// since (unbacked) is dropped like deliver drops one of a deregistered
// region.
func (h *HCA) serveRead(p *sim.Proc, m *simnet.Message) {
	w := m.Payload.(*wire)
	initiator := w.initiator
	resp := h.takeWire(wireReadResp)
	resp.id, resp.size = w.id, w.size
	var err error
	if h.node.Network().Node(initiator).Group().ShardIndex() == h.node.Group().ShardIndex() {
		resp.raddr, resp.rkey, resp.src = w.raddr, w.rkey, h
		err = resp.source()
	} else {
		resp.data = h.scratch().Get(w.size)
		err = h.space.ReadInto(w.raddr, resp.data)
	}
	h.putWire(w)
	if err != nil {
		if h.faults == nil {
			sim.Failf("ib: %s: RDMA read fault: %v", h.node.Name, err)
		}
		h.putWire(resp)
		return // the initiator times out
	}
	p.Sleep(h.params.ReadTurnaround)
	if err := h.node.Send(p, initiator, resp.size+wireHeader, resp); err != nil {
		h.putWire(resp) // partitioned mid-read; the initiator times out
	}
}

// source checks the bytes a same-shard read response names: the key is
// current at the responder and the bytes are readable. At serve time that
// is the read's check; at arrival a response that fails it was fenced off
// since.
func (w *wire) source() error {
	ext := mem.Extent{Addr: w.raddr, Len: int64(w.size)}
	if err := w.src.checkRemote(w.rkey, ext); err != nil {
		return err
	}
	if !w.src.space.Accessible(ext) {
		return fmt.Errorf("%v of rkey %#x is not backed", ext, uint64(w.rkey))
	}
	return nil
}

// Send transmits a channel-semantics message of the given payload size to the
// remote endpoint, where it is delivered to a matching Recv. The caller
// blocks for wire serialization plus the work-request overhead. A fault-
// injected completion error or a partitioned link fails the send with a
// *WCError and moves the QP to the error state; without a fault plane
// attached Send never fails.
func (q *QP) Send(p *sim.Proc, size int, payload any) error {
	h := q.hca
	if err := q.wrFault(p, opSend); err != nil {
		return err
	}
	sp := h.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), h.node.Name, "ib.send", trace.StageWire)
	sp.SetBytes(int64(size))
	h.Counters.SendMsgs++
	h.Counters.BytesOut += int64(size)
	h.mx.sendQ.Add(p.Now(), 1)
	w := h.takeWire(wireSend)
	w.dstQP, w.size, w.payload = q.remoteNum, size, payload
	err := h.node.Send(p, q.remote, size+wireHeader, w)
	if err != nil {
		h.putWire(w) // dropped on the wire; never reached the peer
		h.mx.sendQ.Add(p.Now(), -1)
		err = q.wireFault(opSend, err)
		sp.EndErr(p.Now(), err)
		return err
	}
	p.Sleep(h.params.WROverhead)
	h.mx.sendQ.Add(p.Now(), -1)
	sp.End(p.Now())
	return nil
}

// Recv blocks until a message arrives on this endpoint and returns its
// payload and the sender-declared size.
func (q *QP) Recv(p *sim.Proc) (int, any) {
	w := q.inbox.Recv(p).(*wire)
	size, payload := w.size, w.payload
	q.hca.putWire(w)
	return size, payload
}

// RecvTimeout is Recv with a deadline; ok is false if nothing arrives
// within d. The recovery layer uses it to bound waits on a peer that may
// have crashed or been partitioned away.
func (q *QP) RecvTimeout(p *sim.Proc, d sim.Duration) (int, any, bool) {
	v, ok := q.inbox.RecvTimeout(p, d)
	if !ok {
		return 0, nil, false
	}
	w := v.(*wire)
	size, payload := w.size, w.payload
	q.hca.putWire(w)
	return size, payload, true
}

// sgeCost returns the initiator-side DMA setup time for a gather list.
func (h *HCA) sgeCost(sges []SGE) sim.Duration {
	var d sim.Duration
	for _, s := range sges {
		d += h.params.PerSGE
		if uint64(s.Addr)%64 != 0 {
			d += h.params.UnalignedPenalty
		}
	}
	return d
}

// checkLocal fails unless every SGE is covered by a registered local MR —
// the precondition real verbs enforce with a local protection fault.
func (h *HCA) checkLocal(op string, sges []SGE) error {
	for _, s := range sges {
		if s.Len <= 0 {
			return fmt.Errorf("ib: %s: empty SGE %v", op, s)
		}
		if !h.coveredLocally(s.Extent()) {
			return fmt.Errorf("ib: %s: %s: local segment %v not registered", h.node.Name, op, s.Extent())
		}
	}
	return nil
}

// RDMAWrite gathers the local segments and writes them contiguously into the
// remote region at raddr. Lists longer than MaxSGE are split into multiple
// work requests, each paying its own overhead. The caller blocks until the
// last work request's local completion; remote memory is updated when the
// data arrives on the wire (before any message the caller sends afterwards).
// An unregistered or unreadable local segment fails the whole work request
// before anything is sent.
func (q *QP) RDMAWrite(p *sim.Proc, sges []SGE, raddr mem.Addr, rkey Key) error {
	h := q.hca
	if err := h.checkLocal("RDMA write", sges); err != nil {
		return err
	}
	sp := h.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), h.node.Name, "ib.rdma-write", trace.StageWire)
	if sp.Recording() {
		sp.SetBytes(TotalLen(sges))
		sp.Annotate("sges=%d", len(sges))
	}
	offset := int64(0)
	for len(sges) > 0 {
		n := len(sges)
		if n > h.params.MaxSGE {
			n = h.params.MaxSGE
		}
		wr := sges[:n]
		sges = sges[n:]
		size := TotalLen(wr)
		// Gather into one pooled staging buffer; the receiving adapter
		// recycles it after scattering into host memory.
		data := h.scratch().Get(int(size))
		off := 0
		for _, s := range wr {
			if err := h.space.ReadInto(s.Addr, data[off:off+int(s.Len)]); err != nil {
				h.scratch().Put(data)
				err = fmt.Errorf("ib: %s: RDMA write gather fault: %w", h.node.Name, err)
				sp.EndErr(p.Now(), err)
				return err
			}
			off += int(s.Len)
		}
		if err := q.wrFault(p, opRDMAWrite); err != nil {
			h.scratch().Put(data)
			sp.EndErr(p.Now(), err)
			return err
		}
		p.Sleep(h.sgeCost(wr))
		h.Counters.RDMAWrites++
		h.Counters.BytesOut += size
		h.mx.sendQ.Add(p.Now(), 1)
		w := h.takeWire(wireWrite)
		w.raddr, w.rkey, w.data = raddr+mem.Addr(offset), rkey, data
		err := h.node.Send(p, q.remote, int(size)+wireHeader, w)
		if err != nil {
			h.putWire(w) // dropped on the wire; never reached the peer
			h.mx.sendQ.Add(p.Now(), -1)
			err = q.wireFault(opRDMAWrite, err)
			sp.EndErr(p.Now(), err)
			return err
		}
		p.Sleep(h.params.WROverhead)
		h.mx.sendQ.Add(p.Now(), -1)
		offset += size
	}
	sp.End(p.Now())
	return nil
}

// land scatters a read response into the segments: straight out of the
// responder's memory for a response that names its source, one copy per
// segment, and out of the snapshot it carries otherwise.
func (h *HCA) land(sges []SGE, resp *wire) error {
	raddr, data := resp.raddr, resp.data
	for _, s := range sges {
		var err error
		if resp.src != nil {
			err = h.space.CopyFrom(s.Addr, resp.src.space, raddr, s.Len)
			raddr += mem.Addr(s.Len)
		} else {
			err = h.space.Write(s.Addr, data[:s.Len])
			data = data[s.Len:]
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// RDMARead reads a contiguous remote region and scatters it into the local
// segments (the verbs shape: remote side contiguous, local side scattered).
// Lists longer than MaxSGE split into multiple work requests. The caller
// blocks until all data has arrived and been scattered. An unregistered or
// unwritable local segment fails the work request. A response from a
// responder on this shard is checked against the fence again when it
// arrives, and its bytes are copied then, straight from the responder's
// memory (land).
func (q *QP) RDMARead(p *sim.Proc, sges []SGE, raddr mem.Addr, rkey Key) error {
	h := q.hca
	if err := h.checkLocal("RDMA read", sges); err != nil {
		return err
	}
	sp := h.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), h.node.Name, "ib.rdma-read", trace.StageWire)
	if sp.Recording() {
		sp.SetBytes(TotalLen(sges))
		sp.Annotate("sges=%d", len(sges))
	}
	offset := int64(0)
	for len(sges) > 0 {
		n := len(sges)
		if n > h.params.MaxSGE {
			n = h.params.MaxSGE
		}
		wr := sges[:n]
		sges = sges[n:]
		size := TotalLen(wr)
		if err := q.wrFault(p, opRDMARead); err != nil {
			sp.EndErr(p.Now(), err)
			return err
		}
		h.nextReadID++
		id := h.nextReadID
		// Each outstanding read holds a reply mailbox until its response
		// (or timeout) and recycles it drained and out of h.reads, so no
		// late sender can reach it.
		mb := h.readMBs.Take()
		h.reads[id] = mb
		h.mx.outReads.Add(p.Now(), 1)
		p.Sleep(h.sgeCost(wr))
		h.Counters.RDMAReads++
		req := h.takeWire(wireReadReq)
		req.id, req.initiator = id, h.node.ID
		req.raddr, req.rkey, req.size = raddr+mem.Addr(offset), rkey, int(size)
		err := h.node.Send(p, q.remote, wireHeader, req)
		if err != nil {
			delete(h.reads, id)
			h.mx.outReads.Add(p.Now(), -1)
			h.putWire(req)
			err = q.wireFault(opRDMARead, err)
			sp.EndErr(p.Now(), err)
			return err
		}
		var resp *wire
		if h.faults != nil {
			// Under faults the response may never come (responder crashed
			// or the return path partitioned): bound the wait.
			posted := p.Now()
			v, ok := mb.RecvTimeout(p, h.params.WRTimeout)
			if !ok {
				// The reads entry is gone, so a late response is discarded
				// on receipt and never lands in the recycled mailbox.
				delete(h.reads, id)
				h.mx.outReads.Add(p.Now(), -1)
			} else if resp = v.(*wire); resp.src != nil && resp.source() != nil {
				// Fenced since it was served: the response is dropped, and
				// the read waits out its timeout as if it never came.
				h.putWire(resp)
				resp = nil
				p.Sleep(h.params.WRTimeout - p.Now().Sub(posted))
			}
			if resp == nil {
				h.readMBs.Put(mb)
				q.state = QPError
				h.Counters.WRErrors++
				wcErr := wcError(WCResponseTimeout, opRDMARead)
				sp.EndErr(p.Now(), wcErr)
				return wcErr
			}
		} else {
			resp = mb.Recv(p).(*wire)
			if resp.src != nil {
				if err := resp.source(); err != nil {
					sim.Failf("ib: %s: RDMA read fault: %v", h.node.Name, err)
				}
			}
		}
		h.readMBs.Put(mb)
		if err := h.land(wr, resp); err != nil {
			h.putWire(resp)
			err = fmt.Errorf("ib: %s: RDMA read scatter fault: %w", h.node.Name, err)
			sp.EndErr(p.Now(), err)
			return err
		}
		h.putWire(resp)
		offset += size
	}
	sp.End(p.Now())
	return nil
}
