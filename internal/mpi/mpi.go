// Package mpi is a minimal message-passing layer over the simulated
// InfiniBand fabric, sufficient to express the paper's MPI-IO methods: each
// rank is a simulation process on a compute node; point-to-point messages
// travel over queue pairs between the compute nodes (so inter-compute-node
// traffic — the "communication between the compute nodes for I/O" row of
// Table 6 — is really on the wire); and the collectives used by two-phase
// I/O (barrier, broadcast, gather, allgather, all-to-all-v) are built from
// the point-to-point layer.
//
// The per-message software overhead is calibrated so the MVAPICH row of
// Table 2 holds: ≈6.8 µs small-message latency over the 6.0 µs verbs write.
package mpi

import (
	"time"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
)

// SoftwareOverhead is the per-message MPI library cost on top of verbs.
const SoftwareOverhead = 800 * time.Nanosecond

// World is one MPI job: a fully connected set of ranks.
type World struct {
	eng   *sim.Engine
	ranks []*Rank
	// acct, when set, receives the payload byte count of every
	// point-to-point message (client-to-client accounting).
	acct func(rank int, bytes int64)
	// envelopes holds each engine shard's envelopes not in flight.
	envelopes []sim.FreeList[envelope]
	// scratch recycles each engine shard's message bodies: Send draws its
	// copy from the sender's shard and a receiver that is done with a body
	// puts it into its own (Rank.Scratch). A body sent and received on one
	// shard goes back to the pool it came from, so a collective keeps that
	// shard's pool level whatever its pattern; only a body that crosses
	// shards changes pools.
	scratch []mem.ScratchPool
}

// envelope carries one message body through a queue pair. The QP's payload
// is an interface, which holds a pointer as it is but boxes a slice header
// in a fresh allocation, so a body travels in a pooled envelope. A sender
// takes one from its shard's list and the receiver puts it into its own.
type envelope struct{ body []byte }

// Rank is one MPI process.
type Rank struct {
	world *World
	id    int
	qps   []*ib.QP // index = peer rank; nil for self

	copied int64 // bytes Send copied, host side
	// envelopes and scratch are the rank's shard's (World.envelopes,
	// World.scratch).
	envelopes *sim.FreeList[envelope]
	scratch   *mem.ScratchPool
	// out holds what a collective returns, until the rank's next one.
	out [][]byte
}

// NewWorld builds a world with one rank per HCA (rank i on hcas[i]) and
// fully connects them. acct may be nil.
func NewWorld(eng *sim.Engine, hcas []*ib.HCA, acct func(rank int, bytes int64)) *World {
	shards := eng.NumShards()
	w := &World{eng: eng, acct: acct, envelopes: make([]sim.FreeList[envelope], shards), scratch: make([]mem.ScratchPool, shards)}
	n := len(hcas)
	for i := 0; i < n; i++ {
		shard := hcas[i].Node().Group().ShardIndex()
		w.ranks = append(w.ranks, &Rank{world: w, id: i, qps: make([]*ib.QP, n), envelopes: &w.envelopes[shard], scratch: &w.scratch[shard], out: make([][]byte, n)})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			qi, qj := ib.Connect(hcas[i], hcas[j])
			// MPI traffic is a control path for the fault plane: the
			// recovery story lives in the file system client, not here.
			qi.MarkControl()
			qj.MarkControl()
			w.ranks[i].qps[j] = qi
			w.ranks[j].qps[i] = qj
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// HostCost returns what the ranks' message bodies have cost the host so far:
// the bytes Send copied and the traffic of the shards' pools.
func (w *World) HostCost() sim.HostCost {
	var hc sim.HostCost
	for _, r := range w.ranks {
		hc.BytesCopied += r.copied
	}
	for i := range w.scratch {
		hc.Add(w.scratch[i].HostCost())
	}
	return hc
}

// Rank returns rank i's handle.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// Scratch returns the pool of message bodies of the rank's engine shard. A
// body built for SendOwned comes from Get; the rank that received it (or any
// other body) and is done with it gives it to Put. Only processes of the
// rank's shard may use the pool; ranks on one shard share it.
func (r *Rank) Scratch() *mem.ScratchPool { return r.scratch }

// Send delivers a copy of data to rank dst (blocking until the send side
// completes, like a buffered MPI_Send); the caller keeps data and may
// overwrite it as soon as Send returns.
func (r *Rank) Send(p *sim.Proc, dst int, data []byte) {
	body := r.scratch.Get(len(data))
	r.copied += int64(copy(body, data))
	r.SendOwned(p, dst, body)
}

// SendOwned is Send without the copy: body itself becomes the message that
// dst's Recv returns, so the caller gives it up and must not touch it again.
func (r *Rank) SendOwned(p *sim.Proc, dst int, body []byte) {
	if dst == r.id {
		sim.Failf("mpi: send to self")
	}
	p.Sleep(SoftwareOverhead)
	if r.world.acct != nil {
		r.world.acct(r.id, int64(len(body)))
	}
	env := r.envelopes.Take()
	env.body = body
	// Control QPs never see injected completion errors; a failure here
	// would mean a partition cut client-to-client links, which mini-MPI
	// (like MPI itself) does not survive.
	sim.Must(r.qps[dst].Send(p, len(body), env))
}

// Recv blocks until a message from rank src arrives and returns its payload,
// which the caller now owns.
func (r *Rank) Recv(p *sim.Proc, src int) []byte {
	if src == r.id {
		sim.Failf("mpi: recv from self")
	}
	_, payload := r.qps[src].Recv(p)
	env := payload.(*envelope)
	body := env.body
	env.body = nil
	r.envelopes.Put(env)
	p.Sleep(SoftwareOverhead)
	return body
}

// Barrier blocks until every rank has entered it. The implementation is
// centralized (gather-to-0 then release), costing two message latencies.
func (r *Rank) Barrier(p *sim.Proc) {
	n := r.Size()
	if n == 1 {
		return
	}
	if r.id == 0 {
		for i := 1; i < n; i++ {
			r.Recv(p, i)
		}
		for i := 1; i < n; i++ {
			r.Send(p, i, nil)
		}
		return
	}
	r.Send(p, 0, nil)
	r.Recv(p, 0)
}

// Bcast sends root's data to every rank and returns it (all ranks call it).
func (r *Rank) Bcast(p *sim.Proc, root int, data []byte) []byte {
	if r.id == root {
		for i := 0; i < r.Size(); i++ {
			if i != root {
				r.Send(p, i, data)
			}
		}
		return data
	}
	return r.Recv(p, root)
}

// Gather collects each rank's data at root; root receives the slices in
// rank order (its own contribution included), others receive nil. Like
// every collective's result, root's slice is the rank's own, valid until its
// next collective call; the parts received are the caller's.
func (r *Rank) Gather(p *sim.Proc, root int, data []byte) [][]byte {
	if r.id != root {
		r.Send(p, root, data)
		return nil
	}
	out := r.out
	out[root] = data
	for i := 0; i < r.Size(); i++ {
		if i != root {
			out[i] = r.Recv(p, i)
		}
	}
	return out
}

// Allgather gives every rank every rank's contribution, in rank order; a
// rank's own is data itself, the others' are the caller's.
func (r *Rank) Allgather(p *sim.Proc, data []byte) [][]byte {
	parts := r.Gather(p, 0, data)
	if r.id == 0 {
		for i := 1; i < r.Size(); i++ {
			for _, part := range parts {
				r.Send(p, i, part)
			}
		}
		return parts
	}
	out := r.out
	for j := range out {
		out[j] = r.Recv(p, 0)
	}
	// Root sends every rank its own part back too; the copy goes to the pool.
	r.scratch.Put(out[r.id])
	out[r.id] = data
	return out
}

// Alltoallv sends a copy of parts[j] to rank j and returns the parts
// received from every rank, indexed by source (parts[self] is passed through
// locally), in a slice valid until the rank's next collective call. Sends
// are buffered (they complete without waiting for the receiver), so posting
// all sends before draining receives cannot deadlock; rounds are shifted so
// senders do not all hit the same receiver at once.
func (r *Rank) Alltoallv(p *sim.Proc, parts [][]byte) [][]byte {
	return r.alltoallv(p, parts, (*Rank).Send)
}

// AlltoallvOwned is Alltoallv without the copies: every parts[j] is given
// away as by SendOwned, and what comes back belongs to the caller.
func (r *Rank) AlltoallvOwned(p *sim.Proc, parts [][]byte) [][]byte {
	return r.alltoallv(p, parts, (*Rank).SendOwned)
}

func (r *Rank) alltoallv(p *sim.Proc, parts [][]byte, send func(*Rank, *sim.Proc, int, []byte)) [][]byte {
	n := r.Size()
	if len(parts) != n {
		sim.Failf("mpi: Alltoallv needs %d parts, got %d", n, len(parts))
	}
	out := r.out
	out[r.id] = parts[r.id]
	for k := 1; k < n; k++ {
		send(r, p, (r.id+k)%n, parts[(r.id+k)%n])
	}
	for k := 1; k < n; k++ {
		src := (r.id - k + n) % n
		out[src] = r.Recv(p, src)
	}
	return out
}

// Op is a reduction operator over int64 (the solvers in this repository
// reduce residual norms and counters).
type Op func(a, b int64) int64

// Reduction operators.
var (
	OpSum = func(a, b int64) int64 { return a + b }
	OpMax = func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin = func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
)

// Reduce combines every rank's value at root with op; non-roots receive 0.
func (r *Rank) Reduce(p *sim.Proc, root int, value int64, op Op) int64 {
	enc := make([]byte, 8)
	putI64(enc, value)
	parts := r.Gather(p, root, enc)
	if r.id != root {
		return 0
	}
	acc := getI64(parts[0])
	for _, part := range parts[1:] {
		acc = op(acc, getI64(part))
	}
	return acc
}

// Allreduce combines every rank's value with op and returns the result on
// every rank (reduce-to-0 then broadcast).
func (r *Rank) Allreduce(p *sim.Proc, value int64, op Op) int64 {
	acc := r.Reduce(p, 0, value, op)
	enc := make([]byte, 8)
	if r.id == 0 {
		putI64(enc, acc)
	}
	return getI64(r.Bcast(p, 0, enc))
}

func putI64(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getI64(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}
