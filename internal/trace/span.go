// Package trace records what happened in a simulated run as hierarchical,
// request-scoped spans on the virtual clock: request lifecycles, wire and
// registration activity, data sieving windows, disk transfers, and — as
// zero-length spans — the fault plane's instants (crashes, restarts,
// aborts, pack fallbacks). A Tracer owns append-only per-node span tables;
// a Span is a small by-value handle into them. Every method is safe on the
// zero Span and on a nil *Tracer, so the hot path carries no conditionals
// and no allocations when tracing is off. Spans carry virtual timestamps,
// so two runs of the same workload produce identical traces.
//
// Spans form trees rooted at a request: the MPI-IO layer (or the PVFS
// client, when used directly) mints a ReqID, and every child span —
// client RPC attempts, wire serialization, registration, server
// dispatch, sieve windows, disk transfers — carries that ReqID plus its
// parent SpanID. Context crosses process boundaries as a packed Ctx
// stored on sim.Proc, and crosses the simulated wire as an explicit
// field on request messages.
package trace

import (
	"fmt"
	"sort"

	"pvfsib/internal/sim"
)

// ReqID identifies one application-level request (one MPI-IO access or
// one direct PVFS list operation). IDs are minted sequentially by the
// Tracer, so identical workloads mint identical IDs.
type ReqID uint32

// SpanID identifies a span within its Tracer: index into the span table
// plus one, so the zero SpanID means "no span".
type SpanID uint32

// Ctx packs a (ReqID, SpanID) pair into one word so it can ride on
// sim.Proc and on wire messages without those packages importing trace.
// The zero Ctx means "untraced".
type Ctx uint64

// PackCtx builds a Ctx from its parts.
func PackCtx(req ReqID, span SpanID) Ctx { return Ctx(req)<<32 | Ctx(span) }

// Req extracts the request ID.
func (c Ctx) Req() ReqID { return ReqID(c >> 32) }

// Span extracts the span ID.
func (c Ctx) Span() SpanID { return SpanID(c) }

// Stage classifies where a span's time is accounted in the cost-model
// decomposition: the T_reg / T_transfer / T_read split of the paper's
// §4–5, refined with the queueing and sieve terms the simulator can
// observe directly.
type Stage uint8

const (
	// StageOther is control-flow time not attributed to a specific
	// resource: RPC round-trip framing, dispatch, bookkeeping.
	StageOther Stage = iota
	// StageReg is memory registration and deregistration (T_reg).
	StageReg
	// StagePack is pack/unpack staging copies on client or server.
	StagePack
	// StageWire is fabric time: tx/rx serialization, flight, and the
	// RDMA gather/scatter engines.
	StageWire
	// StageQueue is time spent waiting for a contended resource (the
	// server's I/O mutex, a busy disk arm).
	StageQueue
	// StageSieve is data-sieving window planning and RMW overhead.
	StageSieve
	// StageDisk is device transfer time (T_read / T_write).
	StageDisk

	// NumStages sizes stage-indexed arrays.
	NumStages
)

var stageNames = [NumStages]string{"other", "reg", "pack", "wire", "queue", "sieve", "disk"}

// String returns the stage's short name.
func (st Stage) String() string {
	if int(st) < len(stageNames) {
		return stageNames[st]
	}
	return fmt.Sprintf("stage(%d)", int(st))
}

// SpanRec is one recorded span. Exported so exporters and tests can walk
// the table; mutate only through Span methods.
type SpanRec struct {
	ID     SpanID
	Parent SpanID
	Req    ReqID
	Node   string
	Kind   string
	Stage  Stage
	Start  sim.Time
	End    sim.Time // valid only when Ended
	Ended  bool
	Bytes  int64
	Attrs  string // "k=v k=v" annotations, appended in call order
	Err    string // non-empty when the span ended in error
}

// Dur returns the span's duration in nanoseconds (zero while open).
func (s *SpanRec) Dur() int64 {
	if !s.Ended {
		return 0
	}
	return int64(s.End - s.Start)
}

// SpanID packing: the top bits carry the node's registration index, the
// low localBits the per-node sequence. Per-node sequences are pure
// functions of that node's own workload, so packed IDs are identical at any
// engine shard count.
const (
	localBits = 20
	localMask = (1 << localBits) - 1
	maxNodes  = 1 << (32 - localBits)
)

// nodeTable is one registered node's private span storage: appended to and
// mutated only from that node's events, so a sharded engine needs no locks.
type nodeTable struct {
	idx     int
	spans   []SpanRec
	nextReq uint32
}

// Tracer owns the span tables for one cluster: one per registered node (or
// device), with packed IDs, so every operation is shard-local — each node's
// spans live in that node's table, touched only by its shard — and every
// derived artifact (Spans order, IDs, profiles) is a deterministic function
// of the workload alone, byte-identical at any shard count. A nil *Tracer
// is valid and records nothing.
type Tracer struct {
	tables map[string]*nodeTable
	order  []*nodeTable // registration order; index = idx
}

// NewTracer returns an empty tracer for the given node (and device) names.
// Every span must come from a registered name, and on a sharded engine each
// name's spans must be produced only by that node's own events. Naming a
// node twice is a no-op.
func NewTracer(names ...string) *Tracer {
	t := &Tracer{tables: make(map[string]*nodeTable, len(names))}
	for _, name := range names {
		if _, ok := t.tables[name]; ok {
			continue
		}
		if len(t.order) >= maxNodes {
			sim.Failf("trace: more than %d registered nodes", maxNodes)
		}
		tab := &nodeTable{idx: len(t.order)}
		t.tables[name] = tab
		t.order = append(t.order, tab)
	}
	return t
}

// rec resolves a span handle to its record.
func (t *Tracer) rec(id SpanID) *SpanRec {
	return &t.order[id>>localBits].spans[(id&localMask)-1]
}

// Span is a by-value handle to one recorded span. The zero Span (and any
// Span from a nil Tracer) is valid: every method no-ops and Ctx returns
// zero.
type Span struct {
	t   *Tracer
	id  SpanID
	req ReqID
}

// NewRequest mints a fresh ReqID and opens its root span. Kind names the
// access method or operation ("listio-write", "datasieving-read"). The
// ReqID packs the minting node's index with its own sequence, so request
// IDs too are independent of shard interleaving.
func (t *Tracer) NewRequest(now sim.Time, node, kind string) Span {
	if t == nil {
		return Span{}
	}
	tab := t.lookup(node)
	tab.nextReq++
	if tab.nextReq > localMask {
		sim.Failf("trace: node %q minted more than %d requests", node, localMask)
	}
	req := ReqID(uint32(tab.idx)<<localBits | tab.nextReq)
	return t.open(now, 0, req, node, kind, StageOther)
}

// lookup finds a registered node's table.
func (t *Tracer) lookup(node string) *nodeTable {
	tab := t.tables[node]
	if tab == nil {
		sim.Failf("trace: span from unregistered node %q (name every node and device in NewTracer)", node)
	}
	return tab
}

// Start opens a child span under ctx. When ctx is zero the span becomes
// a detached root with no request ID — recorded, but excluded from
// request accounting.
//
// Every traced operation calls Start, tracer attached or not; the nil-
// tracer fast path must stay effect-free.
func (t *Tracer) Start(now sim.Time, ctx Ctx, node, kind string, stage Stage) Span {
	if t == nil {
		return Span{}
	}
	return t.open(now, ctx.Span(), ctx.Req(), node, kind, stage)
}

func (t *Tracer) open(now sim.Time, parent SpanID, req ReqID, node, kind string, stage Stage) Span {
	tab := t.lookup(node)
	local := len(tab.spans) + 1
	if local > localMask {
		sim.Failf("trace: node %q recorded more than %d spans", node, localMask)
	}
	id := SpanID(uint32(tab.idx)<<localBits | uint32(local))
	tab.spans = append(tab.spans, SpanRec{
		ID: id, Parent: parent, Req: req,
		Node: node, Kind: kind, Stage: stage, Start: now,
	})
	return Span{t: t, id: id, req: req}
}

// Instant records something that happened at one moment — a crash, an
// abort, a fallback decision — as an already-ended zero-length span under
// ctx (a detached root when ctx is zero), so it shows up in every span view
// under the request it hit without adding time to any stage. attrs, which
// describes it, runs only when t records: a caller's values are formatted,
// and boxed, only then, and a closure that Instant does not keep stays on
// the caller's stack, so a disabled tracer costs a fault path nothing.
func (t *Tracer) Instant(now sim.Time, ctx Ctx, node, kind string, bytes int64, attrs func() string) {
	if t == nil {
		return
	}
	r := t.rec(t.open(now, ctx.Span(), ctx.Req(), node, kind, StageOther).id)
	r.Bytes = bytes
	r.Attrs = attrs()
	r.End, r.Ended = now, true
}

// End closes the span at the given virtual time. Ending a span twice, or
// touching it after End (SetBytes, Annotate), is a bug: under
// sim.PoisonReleased a second End fails the run, and Tracer.Open counts the
// spans a path forgot to end. Otherwise the second End wins, so a trace is
// still produced for inspection.
func (s Span) End(now sim.Time) {
	if s.t == nil {
		return
	}
	s.t.end(s.id, now)
}

// EndErr closes the span and records the error that terminated it; a nil
// error is equivalent to End.
func (s Span) EndErr(now sim.Time, err error) {
	if s.t == nil {
		return
	}
	r := s.t.end(s.id, now)
	if err != nil {
		r.Err = err.Error()
	}
}

// end closes a recorded span and returns its record.
func (t *Tracer) end(id SpanID, now sim.Time) *SpanRec {
	r := t.rec(id)
	if r.Ended && sim.PoisonReleased {
		sim.Failf("trace: %s span %q on %s ended twice", r.Stage, r.Kind, r.Node)
	}
	r.End = now
	r.Ended = true
	return r
}

// SetBytes records the payload size the span moved.
func (s Span) SetBytes(n int64) {
	if s.t == nil {
		return
	}
	s.t.rec(s.id).Bytes = n
}

// Annotate appends a formatted "key=value" attribute to the span.
func (s Span) Annotate(format string, args ...any) {
	if s.t == nil {
		return
	}
	r := s.t.rec(s.id)
	if r.Attrs != "" {
		r.Attrs += " "
	}
	r.Attrs += fmt.Sprintf(format, args...)
}

// Recording reports whether the span records anything. Hot paths guard
// Annotate calls that box arguments behind it, so a disabled tracer
// allocates nothing.
func (s Span) Recording() bool { return s.t != nil }

// Ctx returns the packed context naming this span as parent, for handing
// to children across process or wire boundaries.
func (s Span) Ctx() Ctx {
	if s.t == nil {
		return 0
	}
	return PackCtx(s.req, s.id)
}

// Req returns the span's request ID (zero for detached spans).
func (s Span) Req() ReqID { return s.req }

// Spans returns the recorded spans as a fresh merged copy in canonical
// order — sorted by start time, ties broken by node registration index
// then per-node sequence — which depends only on the workload, never on
// how a sharded engine interleaved the nodes.
func (t *Tracer) Spans() []SpanRec {
	if t == nil {
		return nil
	}
	out := make([]SpanRec, 0, t.Len())
	for _, tab := range t.order {
		out = append(out, tab.spans...)
	}
	// Each table is start-ordered already (a node's clock never runs
	// backwards), and they are concatenated in registration order, so a
	// stable sort on start time alone yields (start, node idx, sequence).
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, tab := range t.order {
		n += len(tab.spans)
	}
	return n
}

// Open reports how many recorded spans have not ended. Once every
// operation has returned it is 0: a span still open is one that a path
// forgot to end.
func (t *Tracer) Open() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, tab := range t.order {
		for i := range tab.spans {
			if !tab.spans[i].Ended {
				n++
			}
		}
	}
	return n
}

// Requests reports how many request IDs have been minted.
func (t *Tracer) Requests() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, tab := range t.order {
		n += int(tab.nextReq)
	}
	return n
}
