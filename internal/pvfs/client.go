package pvfs

import (
	"fmt"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/ogr"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/stats"
	"pvfsib/internal/trace"
)

// Client is the PVFS library on one compute node.
type Client struct {
	cluster *Cluster
	idx     int
	node    *simnet.Node
	space   *mem.AddrSpace
	hca     *ib.HCA
	cache   *ib.RegCache
	conns   []*clientConn // one per server
	servers []int         // every server's index, the fan-out set of whole-file operations
	mgr     *clientConn   // connection to the metadata manager
	// cpu serializes host-memory copies (pack/unpack): the per-server
	// transfer legs of one operation run concurrently on the wire, but
	// their staging copies share one processor.
	cpu *sim.Resource
	// nextSeq numbers this client's requests; a retry gets a fresh number
	// so stale replies to abandoned attempts are recognizable.
	nextSeq int64
	// recallFns holds per-file lease recall callbacks (lease.go), run in
	// registration order by the client's recall daemon.
	recallFns map[int64][]*recallFn
	// plans holds the operation plans not in use (split.go).
	plans sim.FreeList[opPlan]
	// recs is the record pool of the client's engine shard (proto.go).
	recs *recordPool

	// acct tallies this client's protocol counters. Only the client's own
	// group touches it; Cluster.Acct folds the per-entity sets together.
	acct stats.Acct

	// mx samples recovery pressure (retries, timeouts, backoff time);
	// cacheMX holds the page cache's instrument handles (metrics.go).
	mx      clientMetrics
	cacheMX CacheMetrics
}

// Acct exposes the client's own protocol counters; higher layers that act
// on a client's behalf (the page cache, MPI) tally here.
func (c *Client) Acct() *stats.Acct { return &c.acct }

// seq returns the next request sequence number.
func (c *Client) seq() int64 {
	c.nextSeq++
	return c.nextSeq
}

// clientConn is the client side of one connection.
type clientConn struct {
	srv int
	qp  *ib.QP
	mu  *sim.Resource // one outstanding operation per connection
	// fastBuf is this connection's Fast-RDMA buffer: pack-scheme writes
	// are packed into it, pack-scheme reads are delivered into it.
	fastBuf *ib.Buffer
	// srvAddr/srvKey is the server-side receive buffer for pack writes.
	srvAddr mem.Addr
	srvKey  ib.Key
	// child names, per kind of fan-out, the process this server's share runs on.
	child [len(fanKinds)]string
}

// The kinds of per-server fan-out; kind[cnX-ioY] names a child.
const (
	fanOp = iota
	fanStat
	fanRemove
	fanSync
)

var fanKinds = [...]string{fanOp: "op", fanStat: "stat", fanRemove: "rm", fanSync: "sync"}

// fanOut runs share(pl, q, i) once per entry of pl.srvs, all starting now,
// and returns when the last has returned. The caller runs i == 0 itself,
// after spawning a child for every other i — named after server pl.srvs[i],
// working under the caller's trace context — so the shares begin in index
// order. What a share needs travels in the plan and share is a function, not
// a closure, so a fan-out allocates nothing but its children's processes.
func (c *Client) fanOut(p *sim.Proc, kind int, pl *opPlan, share func(pl *opPlan, q *sim.Proc, i int)) {
	if len(pl.srvs) == 1 {
		share(pl, p, 0)
		return
	}
	pl.ctx, pl.share = p.TraceCtx(), share
	pl.wg.Add(len(pl.srvs) - 1)
	for i := 1; i < len(pl.srvs); i++ {
		p.Go(c.conns[pl.srvs[i]].child[kind], pl.kid(i).run)
	}
	share(pl, p, 0)
	pl.wg.Wait(p)
}

// fanChild is one child slot of a plan's fan-out: run is the process body
// of share i, bound once when the slot is made.
type fanChild struct {
	pl  *opPlan
	i   int
	run func(q *sim.Proc)
}

// kid returns the plan's child slot for share i.
func (pl *opPlan) kid(i int) *fanChild {
	for len(pl.kids) <= i {
		// One child slot, and its bound body, per share a fan-out on this
		// plan has had: at most the cluster's server count.
		k := &fanChild{pl: pl, i: len(pl.kids)}
		k.run = k.body
		pl.kids = append(pl.kids, k)
	}
	return pl.kids[i]
}

func (k *fanChild) body(q *sim.Proc) {
	pl := k.pl
	defer pl.wg.Done()
	q.SetTraceCtx(pl.ctx)
	pl.share(pl, q, k.i)
}

// toAllServers aims the plan's fan-out at every server, as the whole-file
// operations do.
func (pl *opPlan) toAllServers() {
	pl.srvs = append(pl.srvs[:0], pl.c.servers...)
}

// Space returns the client's simulated address space; applications allocate
// their I/O buffers from it.
func (c *Client) Space() *mem.AddrSpace { return c.space }

// HCA returns the client's adapter.
func (c *Client) HCA() *ib.HCA { return c.hca }

// Node returns the client's fabric node.
func (c *Client) Node() *simnet.Node { return c.node }

// RegCache returns the client's pin-down cache.
func (c *Client) RegCache() *ib.RegCache { return c.cache }

// Cluster returns the cluster this client belongs to.
func (c *Client) Cluster() *Cluster { return c.cluster }

func newClient(cl *Cluster, idx int) *Client {
	name := fmt.Sprintf("cn%d", idx)
	node := cl.Net.AddNodeIn(cl.Eng.AddGroup(name), name)
	space := mem.NewAddrSpace(node.Name)
	c := &Client{
		cluster: cl,
		idx:     idx,
		node:    node,
		space:   space,
		hca:     ib.NewHCA(node, space, cl.Cfg.IB),
	}
	c.cache = ib.NewRegCache(c.hca, cl.Cfg.RegCacheBytes, cl.Cfg.RegCacheEntries)
	c.cpu = cl.Eng.NewResource(fmt.Sprintf("cn%d.cpu", idx), 1)
	c.recs = cl.recordPool(node)
	c.setMetrics(nil)
	return c
}

// connect wires the client to every server and to the manager.
func (c *Client) connect() {
	cl := c.cluster
	for _, s := range cl.Servers {
		cq, sq := ib.Connect(c.hca, s.hca)
		// Client-side Fast-RDMA buffer. Registration of freshly malloc'd
		// setup buffers cannot fail unless the model itself is broken.
		fastAddr := c.space.Malloc(cl.Cfg.FastBufSize)
		fastMR, err := c.hca.RegisterStatic(mem.Extent{Addr: fastAddr, Len: cl.Cfg.FastBufSize})
		sim.Must(err)
		// Server-side receive buffer for pack writes.
		recvAddr := s.space.Malloc(cl.Cfg.FastBufSize)
		recvMR, err := s.hca.RegisterStatic(mem.Extent{Addr: recvAddr, Len: cl.Cfg.FastBufSize})
		sim.Must(err)

		conn := &clientConn{
			srv:     s.idx,
			qp:      cq,
			mu:      cl.Eng.NewResource(fmt.Sprintf("conn[cn%d-io%d]", c.idx, s.idx), 1),
			fastBuf: &ib.Buffer{Addr: fastAddr, Size: cl.Cfg.FastBufSize, MR: fastMR},
			srvAddr: recvAddr,
			srvKey:  recvMR.Key,
		}
		for kind, name := range fanKinds {
			conn.child[kind] = fmt.Sprintf("%s[cn%d-io%d]", name, c.idx, s.idx)
		}
		c.conns = append(c.conns, conn)
		c.servers = append(c.servers, s.idx)

		sconn := &serverConn{
			srv:     s,
			qp:      sq,
			recvBuf: &ib.Buffer{Addr: recvAddr, Size: cl.Cfg.FastBufSize, MR: recvMR},
			cliAddr: fastAddr,
			cliKey:  fastMR.Key,
		}
		cl.Eng.GoDaemonOn(s.node.Group(), fmt.Sprintf("iod[io%d<-cn%d]", s.idx, c.idx), sconn.serve)
	}
	cq, mq := ib.Connect(c.hca, cl.Manager.hca)
	// Metadata is a control path: the fault plane injects no completion
	// errors on it (partitions can still drop its messages).
	cq.MarkControl()
	mq.MarkControl()
	c.mgr = &clientConn{qp: cq, mu: cl.Eng.NewResource(fmt.Sprintf("mgrconn[cn%d]", c.idx), 1)}
	cl.Eng.GoDaemonOn(cl.Manager.node.Group(), fmt.Sprintf("mgr[<-cn%d]", c.idx),
		func(p *sim.Proc) { cl.Manager.serve(p, mq) })
	// Lease callback channel, manager → client: the manager pushes recalls,
	// the client's daemon acks them. Control path like the metadata QP.
	cbCli, cbMgr := ib.Connect(c.hca, cl.Manager.hca)
	cbCli.MarkControl()
	cbMgr.MarkControl()
	cl.Manager.cbs[c.idx] = cbMgr
	cl.Eng.GoDaemonOn(c.node.Group(), fmt.Sprintf("cb[cn%d]", c.idx),
		func(p *sim.Proc) { c.serveRecalls(p, cbCli) })
}

// FileHandle is an open PVFS file.
type FileHandle struct {
	client     *Client
	id         int64
	name       string
	stripeSize int64
}

// Name returns the file's cluster-wide name.
func (fh *FileHandle) Name() string { return fh.name }

// Client returns the client library instance the handle belongs to.
func (fh *FileHandle) Client() *Client { return fh.client }

// StripeSize returns the file's striping unit.
func (fh *FileHandle) StripeSize() int64 { return fh.stripeSize }

// Open contacts the metadata manager and returns a handle, creating the
// file (with the cluster's default striping) on first open. The manager
// does not participate in data transfers.
func (c *Client) Open(p *sim.Proc, name string) *FileHandle {
	return c.OpenStriped(p, name, 0)
}

// OpenStriped is Open with an explicit striping unit for newly created
// files; stripeSize <= 0 means the cluster default. Striping is immutable
// after creation — opening an existing file returns its original striping.
func (c *Client) OpenStriped(p *sim.Proc, name string, stripeSize int64) *FileHandle {
	c.mgr.mu.Acquire(p)
	defer c.mgr.mu.Release()
	c.acct.OpenReqs++
	resp, err := c.rpc(p, c.mgr, reqSize(0), func(seq int64) any {
		req := c.recs.take(recOpen, seq)
		req.Name, req.Total = name, stripeSize
		return req
	})
	sim.Must(err)
	r, err := asReply(resp, recOpenResp)
	sim.Must(err)
	fh := &FileHandle{client: c, id: r.FileID, name: name, stripeSize: r.Total}
	c.recs.put(r)
	return fh
}

// OpOptions tunes one list-I/O operation. The zero value is the production
// configuration: hybrid transfer, cached OGR registration, server-side
// cost-model sieving.
type OpOptions struct {
	Transfer Transfer
	Reg      RegPolicy
	Sieve    sieve.Mode
	// Allocation is the enclosing application allocation, required by
	// RegDeclared and ignored otherwise.
	Allocation mem.Extent
}

// RegisterRegion pins an application region for use with RegExplicit
// operations (the paper's Section 4.2.1 first scheme). The caller owns the
// region and must ReleaseRegion it.
func (c *Client) RegisterRegion(p *sim.Proc, e mem.Extent) (*ib.MR, error) {
	return c.hca.Register(p, e)
}

// ReleaseRegion unpins a region obtained from RegisterRegion.
func (c *Client) ReleaseRegion(p *sim.Proc, mr *ib.MR) error {
	return c.hca.Deregister(p, mr)
}

// WriteList writes the bytes described by memSegs (client memory, in order)
// to the file regions fileAccs (in order); total lengths must match. This is
// pvfs_write_list: any number of regions, one logical operation.
func (fh *FileHandle) WriteList(p *sim.Proc, memSegs []ib.SGE, fileAccs []OffLen, opts OpOptions) error {
	return fh.listOp(p, memSegs, fileAccs, opts, true)
}

// ReadList reads the file regions fileAccs into the memory segments memSegs.
// Regions beyond end-of-file read as zeros.
func (fh *FileHandle) ReadList(p *sim.Proc, memSegs []ib.SGE, fileAccs []OffLen, opts OpOptions) error {
	return fh.listOp(p, memSegs, fileAccs, opts, false)
}

// Write is the contiguous special case of WriteList.
func (fh *FileHandle) Write(p *sim.Proc, addr mem.Addr, n int64, off int64, opts OpOptions) error {
	return fh.WriteList(p, []ib.SGE{{Addr: addr, Len: n}}, []OffLen{{Off: off, Len: n}}, opts)
}

// Read is the contiguous special case of ReadList.
func (fh *FileHandle) Read(p *sim.Proc, addr mem.Addr, n int64, off int64, opts OpOptions) error {
	return fh.ReadList(p, []ib.SGE{{Addr: addr, Len: n}}, []OffLen{{Off: off, Len: n}}, opts)
}

// Stat returns the file's logical size: the end of the farthest-out byte
// across all stripes. Like PVFS, the metadata manager stores no sizes; the
// client queries every I/O server's local stripe file and maps the local
// ends back to logical offsets.
func (fh *FileHandle) Stat(p *sim.Proc) int64 {
	c := fh.client
	n := len(c.conns)
	pl := c.takePlan()
	defer c.releasePlan(pl)
	pl.toAllServers()
	pl.fileID, pl.kind = fh.id, recStat
	pl.sizes = append(pl.sizes[:0], make([]int64, n)...)
	c.fanOut(p, fanStat, pl, (*opPlan).fileShare)
	var eof int64
	for srv, local := range pl.sizes {
		if local == 0 {
			continue
		}
		// The last local byte is at local-1: map it back to its logical
		// offset (inverse of locate).
		stripeWithin := (local - 1) / fh.stripeSize
		globalStripe := stripeWithin*int64(n) + int64(srv)
		end := globalStripe*fh.stripeSize + (local-1)%fh.stripeSize + 1
		if end > eof {
			eof = end
		}
	}
	return eof
}

// fileShare is share i of a whole-file request of the plan's kind — Sync,
// Stat or Remove — on its server's connection, under the share's trace
// context. A Stat keeps the server's local size in pl.sizes[i].
func (pl *opPlan) fileShare(q *sim.Proc, i int) {
	c := pl.c
	if pl.kind == recSync {
		c.acct.SyncReqs++
	}
	conn := c.conns[pl.srvs[i]]
	conn.mu.Acquire(q)
	defer conn.mu.Release()
	resp, err := c.rpc(q, conn, reqSize(0), func(seq int64) any {
		req := c.recs.take(pl.kind, seq)
		req.FileID, req.Ctx = pl.fileID, q.TraceCtx()
		return req
	})
	sim.Must(err)
	r, err := asReply(resp, pl.kind+1) // a reply is the kind after its request's
	sim.Must(err)
	if pl.kind == recStat {
		pl.sizes[i] = r.Total
	}
	c.recs.put(r)
}

// Remove unlinks the file from the manager's name space and deletes every
// server's stripe file. Removing a nonexistent name is a no-op.
func (c *Client) Remove(p *sim.Proc, name string) {
	c.mgr.mu.Acquire(p)
	resp, err := c.rpc(p, c.mgr, reqSize(0), func(seq int64) any {
		req := c.recs.take(recUnlink, seq)
		req.Name, req.Ctx = name, p.TraceCtx()
		return req
	})
	c.mgr.mu.Release()
	sim.Must(err)
	un, err := asReply(resp, recUnlinkResp)
	sim.Must(err)
	id, found := un.FileID, un.Total != 0
	c.recs.put(un)
	if !found {
		return
	}
	pl := c.takePlan()
	defer c.releasePlan(pl)
	pl.toAllServers()
	pl.fileID, pl.kind = id, recRemove
	c.fanOut(p, fanRemove, pl, (*opPlan).fileShare)
}

// Sync flushes the file on every I/O server, like fsync.
func (fh *FileHandle) Sync(p *sim.Proc) {
	c := fh.client
	pl := c.takePlan()
	defer c.releasePlan(pl)
	pl.toAllServers()
	pl.fileID, pl.kind = fh.id, recSync
	c.fanOut(p, fanSync, pl, (*opPlan).fileShare)
}

// listOp is the traced entry point for one list operation: it opens the
// operation's span (minting a fresh request ID when no MPI-IO layer
// already did) and points the calling process's trace context at it, so
// registration, per-server attempts, and everything they trigger nest
// underneath. With tracing off this is one nil check.
func (fh *FileHandle) listOp(p *sim.Proc, memSegs []ib.SGE, fileAccs []OffLen, opts OpOptions, write bool) error {
	c := fh.client
	tr := c.cluster.Spans
	if tr == nil {
		return fh.doListOp(p, memSegs, fileAccs, opts, write)
	}
	kind := "pvfs.readlist"
	if write {
		kind = "pvfs.writelist"
	}
	var sp trace.Span
	if ctx := trace.Ctx(p.TraceCtx()); ctx != 0 {
		sp = tr.Start(p.Now(), ctx, c.node.Name, kind, trace.StageOther)
	} else {
		sp = tr.NewRequest(p.Now(), c.node.Name, kind)
	}
	sp.SetBytes(ib.TotalLen(memSegs))
	sp.Annotate("segs=%d accs=%d", len(memSegs), len(fileAccs))
	prev := p.TraceCtx()
	p.SetTraceCtx(uint64(sp.Ctx()))
	err := fh.doListOp(p, memSegs, fileAccs, opts, write)
	p.SetTraceCtx(prev)
	sp.EndErr(p.Now(), err)
	return err
}

// doListOp fans a list operation out across the servers, running the
// per-server chunks in parallel; an operation that touches one server runs
// start to finish on the calling process.
//
// The transfer scheme is chosen once per operation (Section 4.3's hybrid
// rule: Pack/Unpack when the total size is at most the stripe size, RDMA
// Gather/Scatter above), and for gather operations all the list-I/O buffers
// are registered once, up front, via the configured registration policy —
// matching the paper's design, where e.g. Table 4's OGR case performs a
// single registration for a whole subarray write.
func (fh *FileHandle) doListOp(p *sim.Proc, memSegs []ib.SGE, fileAccs []OffLen, opts OpOptions, write bool) error {
	c := fh.client
	cfg := c.cluster.Cfg
	// The operation describes itself in a plan it owns until it returns.
	pl := c.takePlan()
	defer c.releasePlan(pl)
	if err := pl.split(memSegs, fileAccs, fh.stripeSize, len(c.conns)); err != nil {
		return err
	}
	total := ib.TotalLen(memSegs)
	pack := false
	switch opts.Transfer {
	case Hybrid:
		pack = total <= cfg.FastBufSize
	case ForcePack:
		pack = true
	}
	var reg ogr.Registrar
	var regRes *ogr.Result
	var declMR *ib.MR
	if cfg.Wire == WireStream {
		// Stream sockets: no RDMA, no registration; the chunk functions
		// take the stream path regardless of the pack decision.
		pack = true
	} else if !pack {
		var err error
		what := "list buffer"
		switch opts.Reg {
		case RegExplicit:
			// Application pre-registered everything; nothing to do (the
			// HCA faults on any uncovered segment).
		case RegDeclared:
			// Register the declared enclosing allocation, once, through
			// the cache.
			if opts.Allocation.Len <= 0 {
				return fmt.Errorf("pvfs: RegDeclared requires OpOptions.Allocation")
			}
			what = "declared allocation"
			declMR, err = c.cache.Get(p, opts.Allocation)
		default:
			var ogrCfg ogr.Config
			reg, ogrCfg = c.registrar(opts.Reg)
			pl.exts = pl.exts[:0]
			for _, s := range memSegs {
				pl.exts = append(pl.exts, s.Extent())
			}
			regRes, err = pl.reg.RegisterBuffers(p, reg, c.space, pl.exts, ogrCfg)
		}
		if err != nil {
			if c.cluster.recovery() == nil || !recoverable(err) {
				return fmt.Errorf("pvfs: %s registration: %w", what, err)
			}
			// Graceful degradation: pinning pressure keeps the user
			// buffers out of RDMA reach, but the pre-registered
			// Fast-RDMA buffers always work — fall back to Pack/Unpack.
			c.acct.Fallbacks++
			c.cluster.Spans.Instant(p.Now(), trace.Ctx(p.TraceCtx()), c.node.Name, "fallback-pack", total, func() string {
				return fmt.Sprintf("registration failed: %v", err)
			})
			pack = true
			regRes = nil
		}
	}
	var firstErr error
	switch len(pl.parts) {
	case 0: // an empty operation reaches no server
	case 1:
		firstErr = c.runPart(p, fh.id, &pl.parts[0], pack, opts, write)
	default:
		firstErr = c.runParts(p, pl, fh.id, pack, opts, write)
	}
	if regRes != nil {
		if err := ogr.Release(p, reg, regRes); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("pvfs: list buffer release: %w", err)
		}
	}
	if declMR != nil {
		if err := c.cache.Put(p, declMR); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("pvfs: declared allocation release: %w", err)
		}
	}
	return firstErr
}

// runParts runs the parts of an operation that spans servers side by side
// and returns the first error any of them ended with. What the shares need
// to know goes into the plan here, so a one-server operation pays for none
// of it.
func (c *Client) runParts(p *sim.Proc, pl *opPlan, fileID int64, pack bool, opts OpOptions, write bool) error {
	pl.srvs = pl.srvs[:0]
	for i := range pl.parts {
		pl.srvs = append(pl.srvs, pl.parts[i].srv)
	}
	pl.fileID, pl.pack, pl.opts, pl.write = fileID, pack, opts, write
	c.fanOut(p, fanOp, pl, (*opPlan).partShare)
	return pl.err
}

func (pl *opPlan) partShare(q *sim.Proc, i int) {
	if err := pl.c.runPart(q, pl.fileID, &pl.parts[i], pl.pack, pl.opts, pl.write); err != nil && pl.err == nil {
		pl.err = err
	}
}

// runPart executes one server's share of a list operation, chunk by chunk.
// Under the fault plane each chunk is retried with capped exponential
// backoff — chunks are idempotent (absolute file offsets, no append state) so
// re-issue after a timeout is safe even when the first attempt actually
// completed server-side. A gather chunk that keeps failing degrades the whole
// part to Pack/Unpack through the pre-registered Fast-RDMA buffers and
// restarts it from the beginning (also idempotent).
func (c *Client) runPart(p *sim.Proc, fileID int64, part *serverPart, pack bool, opts OpOptions, write bool) error {
	cfg := c.cluster.Cfg
	rec := c.cluster.recovery()
restart:
	maxBytes := cfg.MaxRequestBytes
	if pack && cfg.Wire == WireVerbs {
		// Pack chunks must fit the Fast-RDMA buffers; streams have no
		// such bound.
		maxBytes = cfg.FastBufSize
	}
	conn := c.conns[part.srv]
	for chunks := part.chunks(cfg.MaxListCount, maxBytes); ; {
		ch, ok := chunks.next()
		if !ok {
			return nil
		}
		gatherFails := 0
		for attempt := 0; ; attempt++ {
			// Every attempt — including re-issues after a timeout or a
			// completion error — is its own span, a sibling of the other
			// attempts under the operation, so retries are visible as
			// repeated bars on the same request row.
			prevCtx := p.TraceCtx()
			sp := c.cluster.Spans.Start(p.Now(), trace.Ctx(prevCtx), c.node.Name, "pvfs.attempt", trace.StageOther)
			if sp.Recording() {
				sp.SetBytes(ch.total)
				sp.Annotate("io%d attempt=%d pack=%t", part.srv, attempt+1, pack)
				p.SetTraceCtx(uint64(sp.Ctx()))
			}
			conn.mu.Acquire(p)
			var err error
			if write {
				err = c.writeChunk(p, conn, fileID, ch, pack, opts)
			} else {
				err = c.readChunk(p, conn, fileID, ch, pack, opts)
			}
			conn.mu.Release()
			p.SetTraceCtx(prevCtx)
			sp.EndErr(p.Now(), err)
			if err == nil {
				break
			}
			if rec == nil || !recoverable(err) {
				return err
			}
			c.mx.retries.Add(p.Now(), 1)
			c.resetConn(p, conn)
			if !pack {
				gatherFails++
				if gatherFails >= rec.FallbackAfter {
					c.acct.Fallbacks++
					c.cluster.Spans.Instant(p.Now(), trace.Ctx(p.TraceCtx()), c.node.Name, "fallback-pack", ch.total, func() string {
						return fmt.Sprintf("io%d gather failed %d times", part.srv, gatherFails)
					})
					pack = true
					goto restart
				}
			}
			if attempt+1 >= rec.MaxRetries {
				return fmt.Errorf("pvfs: cn%d io%d: chunk failed after %d attempts: %w",
					c.idx, part.srv, attempt+1, err)
			}
			t0 := p.Now()
			p.Sleep(retryBackoff(rec, attempt))
			c.mx.backoff.AddSpan(t0, p.Now())
		}
	}
}

// cpuCopy charges one staging copy (pack or unpack) on the client's copy
// processor, recorded as a StagePack span on the current request. Note
// the span brackets the Use call, so CPU contention between concurrent
// operations shows up inside the pack span — that wait is part of the
// copy's cost, not separate queueing.
func (c *Client) cpuCopy(p *sim.Proc, kind string, n int64, cost sim.Duration) {
	sp := c.cluster.Spans.Start(p.Now(), trace.Ctx(p.TraceCtx()), c.node.Name, kind, trace.StagePack)
	sp.SetBytes(n)
	c.cpu.Use(p, cost)
	sp.End(p.Now())
}

// registrar returns the registration strategy and OGR config for the policy.
func (c *Client) registrar(policy RegPolicy) (ogr.Registrar, ogr.Config) {
	cfg := c.cluster.Cfg.OGR
	cfg.Params = c.cluster.Cfg.IB
	switch policy {
	case RegCached:
		return ogr.Cached{Cache: c.cache}, cfg
	case RegIndividual:
		cfg.DisableGrouping = true
		return ogr.Direct{HCA: c.hca}, cfg
	default:
		return ogr.Direct{HCA: c.hca}, cfg
	}
}

// request builds the record announcing a chunk: the chunk's regions are
// copied into the record, which owns them from here on (proto.go).
func (c *Client) request(p *sim.Proc, kind recKind, seq, fileID int64, ch chunk, pack bool, opts OpOptions) *record {
	req := c.recs.take(kind, seq)
	req.FileID, req.Total, req.SchemePack, req.Sieve, req.Ctx = fileID, ch.total, pack, opts.Sieve, p.TraceCtx()
	// A record's region list reaches the request pair limit once and is
	// recycled with the record.
	req.Accs = append(req.Accs, ch.accs...)
	return req
}

// send posts a request on the connection. A record the send could not post
// never left this node, so it goes back to the pool it came from.
func (c *Client) send(p *sim.Proc, conn *clientConn, size int, req any) error {
	err := conn.qp.Send(p, size, req)
	if r, ok := req.(*record); ok && err != nil {
		c.recs.put(r)
	}
	return err
}

// expect waits for the reply of the given kind to request seq and returns
// it; the caller recycles it.
func (c *Client) expect(p *sim.Proc, conn *clientConn, seq int64, kind recKind) (*record, error) {
	resp, err := c.recvResp(p, conn, seq)
	if err != nil {
		return nil, err
	}
	return asReply(resp, kind)
}

// asReply returns resp as a record of the given reply kind. Any other reply
// is a protocol error.
func asReply(resp any, kind recKind) (*record, error) {
	r, ok := resp.(*record)
	if !ok || r.Kind != kind {
		return nil, fmt.Errorf("pvfs: expected a %v reply, got %T %v", kind, resp, resp)
	}
	return r, nil
}

// await is expect for a reply that carries nothing the caller reads.
func (c *Client) await(p *sim.Proc, conn *clientConn, seq int64, kind recKind) error {
	r, err := c.expect(p, conn, seq, kind)
	if err == nil {
		c.recs.put(r)
	}
	return err
}

func (c *Client) writeChunk(p *sim.Proc, conn *clientConn, fileID int64, ch chunk, pack bool, opts OpOptions) error {
	cl := c.cluster
	c.acct.WriteReqs++
	c.acct.BytesClientServer += ch.total
	seq := c.seq()
	if cl.Cfg.Wire == WireStream {
		// Stream sockets: the payload rides in the request. The gather
		// into the socket is one user-to-kernel copy.
		data := make([]byte, ch.total) // owned by the request from here on
		off := int64(0)
		for _, s := range ch.segs {
			if err := c.space.ReadInto(s.Addr, data[off:off+s.Len]); err != nil {
				return fmt.Errorf("pvfs: stream gather: %w", err)
			}
			off += s.Len
		}
		c.cpuCopy(p, "pvfs.pack", ch.total, cl.Cfg.IB.MemcpyTime(ch.total)+cl.Cfg.StreamOverhead)
		req := c.request(p, recWrite, seq, fileID, ch, pack, opts)
		req.Stream, req.Data = true, data
		if err := c.send(p, conn, reqSize(len(ch.accs))+int(ch.total), req); err != nil {
			return err
		}
		if err := c.await(p, conn, seq, recWriteResp); err != nil {
			return err
		}
		p.Sleep(cl.Cfg.StreamOverhead)
		return nil
	}
	if pack {
		// Pack the user segments into the Fast-RDMA buffer (one copy),
		// push it, then send the request.
		dst := conn.fastBuf.Addr
		for _, s := range ch.segs {
			if err := c.space.Copy(dst, s.Addr, s.Len); err != nil {
				return fmt.Errorf("pvfs: pack gather: %w", err)
			}
			dst += mem.Addr(s.Len)
		}
		c.cpuCopy(p, "pvfs.pack", ch.total, cl.Cfg.IB.MemcpyTime(ch.total))
		if err := conn.qp.RDMAWrite(p, []ib.SGE{{Addr: conn.fastBuf.Addr, Len: ch.total}}, conn.srvAddr, conn.srvKey); err != nil {
			return fmt.Errorf("pvfs: pack push: %w", err)
		}
		if err := c.send(p, conn, reqSize(len(ch.accs)), c.request(p, recWrite, seq, fileID, ch, pack, opts)); err != nil {
			return err
		}
		return c.await(p, conn, seq, recWriteResp)
	}
	// Gather: buffers were registered at operation start; rendezvous,
	// then RDMA-gather-write straight from user memory.
	if err := c.send(p, conn, reqSize(len(ch.accs)), c.request(p, recWrite, seq, fileID, ch, pack, opts)); err != nil {
		return err
	}
	ready, err := c.expect(p, conn, seq, recWriteReady)
	if err != nil {
		return err
	}
	addr, key := ready.Addr, ready.Key
	c.recs.put(ready)
	if err := conn.qp.RDMAWrite(p, ch.segs, addr, key); err != nil {
		return fmt.Errorf("pvfs: gather write: %w", err)
	}
	if err := c.send(p, conn, reqSize(0), c.recs.take(recWriteDone, seq)); err != nil {
		return err
	}
	return c.await(p, conn, seq, recWriteResp)
}

func (c *Client) readChunk(p *sim.Proc, conn *clientConn, fileID int64, ch chunk, pack bool, opts OpOptions) error {
	cl := c.cluster
	c.acct.ReadReqs++
	c.acct.BytesClientServer += ch.total
	seq := c.seq()
	req := c.request(p, recRead, seq, fileID, ch, pack, opts)
	if cl.Cfg.Wire == WireStream {
		req.Stream = true
		p.Sleep(cl.Cfg.StreamOverhead)
		if err := c.send(p, conn, reqSize(len(ch.accs)), req); err != nil {
			return err
		}
		r, err := c.expect(p, conn, seq, recReadResp)
		if err != nil {
			return err
		}
		// Kernel-to-user copy plus the scatter into the segments.
		c.cpuCopy(p, "pvfs.unpack", ch.total, cl.Cfg.IB.MemcpyTime(ch.total)+cl.Cfg.StreamOverhead)
		data := r.Data
		for _, s := range ch.segs {
			if err := c.space.Write(s.Addr, data[:s.Len]); err != nil {
				return fmt.Errorf("pvfs: stream scatter: %w", err)
			}
			data = data[s.Len:]
		}
		c.recs.put(r)
		return nil
	}
	if pack {
		if err := c.send(p, conn, reqSize(len(ch.accs)), req); err != nil {
			return err
		}
		// The reply says the data is already in fastBuf.
		if err := c.await(p, conn, seq, recReadResp); err != nil {
			return err
		}
		// Unpack into the user segments (one copy).
		c.cpuCopy(p, "pvfs.unpack", ch.total, cl.Cfg.IB.MemcpyTime(ch.total))
		src := conn.fastBuf.Addr
		for _, s := range ch.segs {
			if err := c.space.Copy(s.Addr, src, s.Len); err != nil {
				return fmt.Errorf("pvfs: unpack scatter: %w", err)
			}
			src += mem.Addr(s.Len)
		}
		return nil
	}
	// Gather/scatter: buffers were registered at operation start;
	// RDMA-read the staged bytes directly into user memory.
	if err := c.send(p, conn, reqSize(len(ch.accs)), req); err != nil {
		return err
	}
	ready, err := c.expect(p, conn, seq, recReadResp)
	if err != nil {
		return err
	}
	addr, key := ready.Addr, ready.Key
	c.recs.put(ready)
	if err := conn.qp.RDMARead(p, ch.segs, addr, key); err != nil {
		return fmt.Errorf("pvfs: scatter read: %w", err)
	}
	return c.send(p, conn, reqSize(0), c.recs.take(recReadDone, seq))
}
