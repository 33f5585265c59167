package pvfs

import (
	"fmt"
	"strconv"

	"pvfsib/internal/disk"
	"pvfsib/internal/ib"
	"pvfsib/internal/localfs"
	"pvfsib/internal/mem"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/stats"
	"pvfsib/internal/trace"
)

// Server is one PVFS I/O daemon: an HCA, a local file system on a private
// disk, a pool of pre-registered staging buffers, and one handler process
// per client connection.
type Server struct {
	cluster *Cluster
	idx     int
	node    *simnet.Node
	space   *mem.AddrSpace
	hca     *ib.HCA
	dsk     *disk.Disk
	fs      *localfs.FS
	staging *ib.BufPool

	sieveParams sieve.Params
	// SieveStats accumulates the daemon's data sieving decisions.
	SieveStats sieve.Stats
	// scratch is the storage of the daemon's request payloads, which changes
	// owner between it, the staging buffers and the connections' receive
	// buffers (mem.AddrSpace.Exchange) and is never copied between them.
	// Only this server's group touches it.
	scratch mem.ScratchPool

	// ioMu serializes the file-access phase of request processing: the
	// PVFS I/O daemon is single-threaded, so local file operations from
	// different client connections never overlap (network phases do).
	ioMu *sim.Resource

	files map[int64]*localfs.File
	// names holds the stripe-file name of each id in files or being opened:
	// a new file's first requests, one per connection, open it at once,
	// and the name is built for the first.
	names map[int64]string

	// down marks the daemon crashed (fault plane): handlers abort and all
	// traffic is discarded until restart.
	down bool
	// mgrQP/mgrMu is the daemon's control connection to the metadata
	// manager, used to (re)register after a restart.
	mgrQP *ib.QP
	mgrMu *sim.Resource

	// mx samples dispatch and file-phase pressure (metrics.go); ioHeld
	// stamps when the current holder acquired ioMu, so releaseIO can
	// credit the held span as busy time. Safe as a single field because
	// ioMu is held across it.
	mx     serverMetrics
	ioHeld sim.Time

	// acct tallies this daemon's protocol counters. Only the server's own
	// group touches it; Cluster.Acct folds the per-entity sets together.
	acct stats.Acct

	// recs is the record pool of the daemon's engine shard (proto.go).
	recs *recordPool
	// sievePlan is the sieve's per-request scratch, only used under ioMu.
	sievePlan sieve.Plan
}

// Down reports whether the daemon is crashed (for tests).
func (s *Server) Down() bool { return s.down }

// HCA returns the server's adapter (for tests and benchmarks).
func (s *Server) HCA() *ib.HCA { return s.hca }

// FS returns the server's local file system.
func (s *Server) FS() *localfs.FS { return s.fs }

// Disk returns the server's disk.
func (s *Server) Disk() *disk.Disk { return s.dsk }

// SieveParams returns the daemon's cost model.
func (s *Server) SieveParams() sieve.Params { return s.sieveParams }

func newServer(c *Cluster, idx int) *Server {
	name := fmt.Sprintf("io%d", idx)
	node := c.Net.AddNodeIn(c.Eng.AddGroup(name), name)
	space := mem.NewAddrSpace(node.Name)
	s := &Server{
		cluster: c,
		idx:     idx,
		node:    node,
		space:   space,
		hca:     ib.NewHCA(node, space, c.Cfg.IB),
		dsk:     disk.New(c.Eng, node.Name+".disk", c.Cfg.Disk),
		ioMu:    c.Eng.NewResource(fmt.Sprintf("io%d.iod", idx), 1),
		files:   make(map[int64]*localfs.File),
		names:   make(map[int64]string),
	}
	s.fs = localfs.New(c.Eng, s.dsk, c.Cfg.FS)
	staging, err := ib.NewBufPool(s.hca, c.Cfg.StagingBuffers, c.Cfg.MaxRequestBytes, &s.scratch)
	sim.Must(err)
	s.staging = staging
	s.sieveParams = sieve.ModelFromFS(s.fs, c.Cfg.IB.MemcpyBandwidth)
	s.sieveParams.Plan = &s.sievePlan
	s.recs = c.recordPool(node)
	return s
}

// serverConn is the daemon side of one client connection.
type serverConn struct {
	srv *Server
	qp  *ib.QP
	// recvBuf receives pack-scheme write data from the client.
	recvBuf *ib.Buffer
	// cliAddr/cliKey is the client-side buffer pack-scheme reads are
	// RDMA-written into.
	cliAddr mem.Addr
	cliKey  ib.Key
}

// file returns the local stripe file for a handle, opening it on first use.
func (s *Server) file(p *sim.Proc, id int64) *localfs.File {
	if f, ok := s.files[id]; ok {
		return f
	}
	name, ok := s.names[id]
	if !ok {
		var b [16]byte
		name = string(stripeName(b[:0], id))
		s.names[id] = name
	}
	f := s.fs.Open(p, name)
	s.files[id] = f
	return f
}

// stripeName appends the local name of file id's stripe file, f%06d.
func stripeName(b []byte, id int64) []byte {
	b = append(b, 'f')
	for w := int64(100000); w > 1 && id < w; w /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, id, 10)
}

// current returns the stripe file the handler looked up as f at generation
// gen, or, if it was removed while the handler waited and its record may be
// another file's by now, the file the id names now — as for a request that
// arrives after the remove.
func (s *Server) current(p *sim.Proc, id int64, f *localfs.File, gen int64) *localfs.File {
	if f.Gen() == gen {
		return f
	}
	return s.file(p, id)
}

// serve is the per-connection handler loop. A handler can return a pushed-back
// request: under faults, a client that timed out mid-protocol re-issues its
// request while the daemon is still inside the previous attempt's rendezvous
// wait; the handler aborts and hands the new request here for reprocessing.
func (sc *serverConn) serve(p *sim.Proc) {
	s := sc.srv
	var pending any
	for {
		var payload any
		if pending != nil {
			payload, pending = pending, nil
		} else {
			_, payload = sc.qp.Recv(p)
		}
		if s.down {
			// Crashed daemon: drop anything already delivered before the
			// adapter went down.
			continue
		}
		req, ok := payload.(*record)
		if !ok {
			sim.Failf("pvfs: server %d: unexpected message %T", s.idx, payload)
		}
		// The handler owns the request until it returns.
		switch req.Kind {
		case recWrite, recRead:
			sp := s.startDispatch(p, req.Ctx, req.Total)
			if req.Kind == recWrite {
				pending = sc.handleWrite(p, req)
			} else {
				pending = sc.handleRead(p, req)
			}
			s.endDispatch(p, sp)
		case recSync, recRemove:
			p.SetTraceCtx(req.Ctx)
			s.acquireIO(p)
			if req.Kind == recSync {
				s.file(p, req.FileID).Sync(p)
			} else if f, ok := s.files[req.FileID]; ok {
				delete(s.files, req.FileID)
				delete(s.names, req.FileID)
				s.fs.Remove(p, f.Name())
			}
			s.releaseIO(p)
			sc.reply(p, smallReplyBytes, s.recs.take(req.Kind+1, req.Seq))
		case recStat:
			resp := s.recs.take(recStatResp, req.Seq)
			if f, ok := s.files[req.FileID]; ok {
				resp.Total = f.Size()
			}
			sc.reply(p, smallReplyBytes, resp)
		case recWriteDone, recReadDone:
			// Under faults, the notice of a rendezvous this handler gave
			// up on: the client's transfer outlived ServerTimeout.
			if s.cluster.recovery() == nil {
				sim.Failf("pvfs: server %d: unexpected %v record", s.idx, req.Kind)
			}
		default:
			sim.Failf("pvfs: server %d: unexpected %v record", s.idx, req.Kind)
		}
		s.recs.put(req)
		p.SetTraceCtx(0)
	}
}

// startDispatch opens the per-request dispatch span under the client's
// wire context and points the handler process's trace context at it, so
// queue, sieve, and disk spans nest underneath. With tracing off both
// the span and the context are zero.
func (s *Server) startDispatch(p *sim.Proc, ctx uint64, bytes int64) trace.Span {
	sp := s.cluster.Spans.Start(p.Now(), trace.Ctx(ctx), s.node.Name, "srv.dispatch", trace.StageOther)
	sp.SetBytes(bytes)
	p.SetTraceCtx(uint64(sp.Ctx()))
	s.mx.dispQ.Add(p.Now(), 1)
	return sp
}

// endDispatch closes the dispatch span opened by startDispatch.
func (s *Server) endDispatch(p *sim.Proc, sp trace.Span) {
	s.mx.dispQ.Add(p.Now(), -1)
	sp.End(p.Now())
}

// acquireIO takes the daemon's I/O mutex, accounting the wait as queue
// time on the current request.
func (s *Server) acquireIO(p *sim.Proc) {
	sp := s.cluster.Spans.Start(p.Now(), trace.Ctx(p.TraceCtx()), s.node.Name, "srv.queue", trace.StageQueue)
	s.mx.ioQ.Add(p.Now(), 1)
	s.ioMu.Acquire(p)
	s.ioHeld = p.Now()
	sp.End(p.Now())
}

// releaseIO drops the daemon's I/O mutex, crediting the held time as
// file-phase busy time.
func (s *Server) releaseIO(p *sim.Proc) {
	held := s.ioHeld
	s.ioMu.Release()
	s.mx.ioQ.Add(p.Now(), -1)
	s.mx.ioBusy.AddSpan(held, p.Now())
}

// reply sends the client a record. A send can only fail under the fault
// plane (injected completion error, partition drop, crashed adapter); the
// daemon resets its QP so the connection can keep serving, puts the record,
// which never left this node, back in the pool and reports failure — the
// client's timeout covers the lost reply, and every request is idempotent.
func (sc *serverConn) reply(p *sim.Proc, size int, r *record) bool {
	if err := sc.qp.Send(p, size, r); err != nil {
		if sc.qp.State() == ib.QPError {
			sc.qp.Reset(p)
		}
		sc.srv.recs.put(r)
		return false
	}
	return true
}

// abort records an aborted request (reply lost, rendezvous expired, or the
// client moved on); the client re-issues it.
func (sc *serverConn) abort(p *sim.Proc, op string, seq int64, why string) {
	s := sc.srv
	s.acct.ServerAborts++
	s.cluster.Spans.Instant(p.Now(), trace.Ctx(p.TraceCtx()), s.node.Name, "iod-abort", 0, func() string {
		return fmt.Sprintf("%s seq=%d: %s", op, seq, why)
	})
}

// waitDone waits for the rendezvous completion notice (want) matching seq. Without a
// fault plane it blocks and anything unexpected is a protocol violation (the
// original strict protocol). Under faults it waits at most ServerTimeout,
// ignores stale notices from attempts the client already abandoned, and pushes
// back any other request for serve to reprocess.
func (sc *serverConn) waitDone(p *sim.Proc, seq int64, want recKind) (ok bool, pending any) {
	s := sc.srv
	rec := s.cluster.recovery()
	for {
		var payload any
		if rec == nil {
			_, payload = sc.qp.Recv(p)
		} else {
			var got bool
			_, payload, got = sc.qp.RecvTimeout(p, rec.ServerTimeout)
			if !got {
				return false, nil
			}
		}
		d, isRec := payload.(*record)
		isDone := isRec && (d.Kind == recWriteDone || d.Kind == recReadDone)
		if isDone && d.Kind == want && d.Seq == seq {
			s.recs.put(d)
			return true, nil
		}
		if rec == nil {
			sim.Failf("pvfs: server %d: expected completion for seq %d, got %#v", s.idx, seq, payload)
		}
		if !isDone {
			return false, payload
		}
		s.recs.put(d) // a stale notice from an attempt the client abandoned
	}
}

// handleWrite serves one list write; serve recycles req when it returns.
func (sc *serverConn) handleWrite(p *sim.Proc, req *record) (next any) {
	s := sc.srv
	f := s.file(p, req.FileID)
	gen := f.Gen()
	var data []byte
	if req.Stream {
		// Stream sockets: kernel-to-user copy of the inline payload.
		sp := s.cluster.Spans.Start(p.Now(), trace.Ctx(p.TraceCtx()), s.node.Name, "srv.unpack", trace.StagePack)
		p.Sleep(s.cluster.Cfg.IB.MemcpyTime(req.Total) + s.cluster.Cfg.StreamOverhead)
		sp.End(p.Now())
		data = req.Data
	} else if req.SchemePack {
		data = sc.takePacked(req.Total)
	} else {
		// Rendezvous: back a staging buffer with the bytes the request
		// names and hand it to the client, wait for the completion notice,
		// then take its storage as the payload.
		buf := s.staging.Get(p)
		s.space.Exchange(buf.Addr, s.scratch.Get(int(req.Total)))
		ready := s.recs.take(recWriteReady, req.Seq)
		ready.Addr, ready.Key = buf.Addr, buf.Key()
		if !sc.reply(p, smallReplyBytes, ready) {
			buf.Put()
			sc.abort(p, "write", req.Seq, "write-ready reply lost")
			return nil
		}
		ok, pending := sc.waitDone(p, req.Seq, recWriteDone)
		if !ok {
			buf.Put()
			sc.abort(p, "write", req.Seq, "rendezvous expired")
			return pending
		}
		data = s.space.Exchange(buf.Addr, nil)[:req.Total]
		buf.Put()
	}
	s.acquireIO(p)
	f = s.current(p, req.FileID, f, gen)
	sieve.Write(p, f, req.Accs, data, s.sieveParams, req.Sieve, &s.SieveStats)
	s.releaseIO(p)
	if !req.Stream {
		// The message owns a stream payload; everything else is the pool's.
		s.scratch.Put(data)
	}
	if !sc.reply(p, smallReplyBytes, s.recs.take(recWriteResp, req.Seq)) {
		sc.abort(p, "write", req.Seq, "write reply lost")
	}
	return nil
}

// takePacked takes the n bytes a pack write landed in the connection's
// receive buffer: the buffer's storage becomes the payload, and a pool
// buffer of its size backs it for the next write. A write of no bytes takes
// and lends nothing: nothing may ever have landed in the buffer, and a lend
// to a buffer without storage would take a pool buffer and give none back.
func (sc *serverConn) takePacked(n int64) []byte {
	if n == 0 {
		return nil
	}
	s := sc.srv
	return s.space.Exchange(sc.recvBuf.Addr, s.scratch.Get(int(sc.recvBuf.Size)))[:n]
}

// handleRead serves one list read; serve recycles req when it returns.
func (sc *serverConn) handleRead(p *sim.Proc, req *record) (next any) {
	s := sc.srv
	f := s.file(p, req.FileID)
	gen := f.Gen()
	s.acquireIO(p)
	f = s.current(p, req.FileID, f, gen)
	if req.Stream {
		// The reply owns a stream payload from here on, so it is not scratch.
		data := make([]byte, req.Total)
		sieve.ReadInto(p, f, req.Accs, data, s.sieveParams, req.Sieve, &s.SieveStats)
		s.releaseIO(p)
		// Stream sockets: payload rides in the reply (user-to-kernel copy).
		sp := s.cluster.Spans.Start(p.Now(), trace.Ctx(p.TraceCtx()), s.node.Name, "srv.pack", trace.StagePack)
		p.Sleep(s.cluster.Cfg.IB.MemcpyTime(req.Total) + s.cluster.Cfg.StreamOverhead)
		sp.End(p.Now())
		resp := s.recs.take(recReadResp, req.Seq)
		resp.Data = data
		if !sc.reply(p, smallReplyBytes+int(req.Total), resp) {
			sc.abort(p, "read", req.Seq, "stream reply lost")
		}
		return nil
	}
	// Request-sized storage, which becomes the staging buffer's. The file
	// lends the bytes into it instead of copying them, and whoever reads the
	// buffer — the client's RDMA read, the pack path's gather — copies them
	// out of the file. The file settles the loan if it changes them first;
	// buf.Put ends it and hands the storage back to the pool, filled or not.
	data := s.scratch.Get(int(req.Total))
	loan := f.Lend(data)
	sieve.Lend(p, f, req.Accs, loan, s.sieveParams, req.Sieve, &s.SieveStats)
	s.releaseIO(p)
	buf := s.staging.Get(p)
	s.space.Exchange(buf.Addr, data)
	s.space.Lend(buf.Addr, loan)
	if req.SchemePack {
		// Push the packed bytes straight into the client's buffer. The
		// target is the connection's statically registered fast buffer, so
		// fault-free a failure here is a broken connection invariant; under
		// faults it is an injected completion error and the request aborts.
		if err := sc.qp.RDMAWrite(p, []ib.SGE{{Addr: buf.Addr, Len: req.Total}}, sc.cliAddr, sc.cliKey); err != nil {
			if s.cluster.recovery() == nil {
				sim.Must(err)
			}
			buf.Put()
			if sc.qp.State() == ib.QPError {
				sc.qp.Reset(p)
			}
			sc.abort(p, "read", req.Seq, "pack RDMA write failed")
			return nil
		}
		buf.Put()
		if !sc.reply(p, smallReplyBytes, s.recs.take(recReadResp, req.Seq)) {
			sc.abort(p, "read", req.Seq, "pack reply lost")
		}
		return nil
	}
	// Gather: the client scatters out of the staging buffer itself.
	ready := s.recs.take(recReadResp, req.Seq)
	ready.Addr, ready.Key = buf.Addr, buf.Key()
	if !sc.reply(p, smallReplyBytes, ready) {
		buf.Put()
		sc.abort(p, "read", req.Seq, "read-ready reply lost")
		return nil
	}
	ok, pending := sc.waitDone(p, req.Seq, recReadDone)
	buf.Put()
	if !ok {
		sc.abort(p, "read", req.Seq, "rendezvous expired")
		return pending
	}
	return nil
}
