package bench

import (
	"testing"
	"time"

	"pvfsib/internal/disk"
	"pvfsib/internal/ib"
	"pvfsib/internal/localfs"
	"pvfsib/internal/mem"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/trace"
)

// These tests are the runtime teeth behind the hotpath analyzer: every
// //pvfslint:hotpath root whose audits say "steady state allocates
// nothing" is exercised here through testing.AllocsPerRun after a warm-up
// that fills the free lists and queue backing arrays. An audit can argue
// an allocation away as "free-list miss" or "error path only"; this file
// checks the argument against the allocator.

// stepHorizon bounds one measured step's virtual time; keepAlive is the
// sleeper period that keeps a future event queued so RunUntil stops at the
// horizon instead of minting a DeadlockError for the forever-parked
// service processes.
const (
	stepHorizon = 50 * time.Millisecond
	keepAlive   = 10 * time.Hour
	warmups     = 3
	runs        = 20
)

// sleeper parks with a far-future wake event so the engine never drains.
func sleeper(eng *sim.Engine) {
	eng.Go("keepalive", func(p *sim.Proc) {
		for {
			p.Sleep(keepAlive)
		}
	})
}

// measure warms step up, then asserts it allocates nothing.
func measure(t *testing.T, name string, step func()) {
	t.Helper()
	for i := 0; i < warmups; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Errorf("%s: %.1f allocs per steady-state step, want 0", name, avg)
	}
}

// TestEngineTurnoverAllocFree covers the (sim.Engine).RunUntil root: a
// chain of timed callbacks through the event heap and the ready queue.
func TestEngineTurnoverAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	var stepErr error
	remaining := 0
	var tick func()
	tick = func() {
		remaining--
		if remaining > 0 {
			eng.After(time.Microsecond, tick)
		}
	}
	measure(t, "engine turnover", func() {
		remaining = 64
		eng.After(time.Microsecond, tick)
		if err := eng.RunUntil(eng.Now().Add(stepHorizon)); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
}

// TestMailboxPingPongAllocFree covers the engine's park/wake machinery
// under RunUntil: two processes trading one preboxed token.
func TestMailboxPingPongAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	sleeper(eng)
	ctl := eng.NewMailbox("ctl")
	req := eng.NewMailbox("req")
	rsp := eng.NewMailbox("rsp")
	done := eng.NewMailbox("done")
	var token any = 1
	eng.Go("server", func(p *sim.Proc) {
		for {
			rsp.Send(req.Recv(p))
		}
	})
	eng.Go("client", func(p *sim.Proc) {
		for {
			v := ctl.Recv(p)
			for i := 0; i < 64; i++ {
				req.Send(token)
				rsp.Recv(p)
			}
			done.Send(v)
		}
	})
	var stepErr error
	missed := false
	measure(t, "mailbox ping-pong", func() {
		ctl.Send(token)
		if err := eng.RunUntil(eng.Now().Add(stepHorizon)); err != nil {
			stepErr = err
		}
		if _, ok := done.TryRecv(); !ok {
			missed = true
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if missed {
		t.Fatal("a step ended before the ping-pong batch completed")
	}
}

// TestSimnetSendAllocFree covers the (simnet.Node).Send, deliverStage and
// rxDone roots: pooled messages from one node's send through the
// receiver's two receive callbacks and back to the free list.
func TestSimnetSendAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	sleeper(eng)
	na := net.AddNode("a")
	nb := net.AddNode("b")
	ctl := eng.NewMailbox("ctl")
	done := eng.NewMailbox("done")
	var token any = 1
	eng.Go("rx", func(p *sim.Proc) {
		for {
			m := nb.Inbox.Recv(p).(*simnet.Message)
			net.Recycle(m)
		}
	})
	eng.Go("tx", func(p *sim.Proc) {
		for {
			v := ctl.Recv(p)
			for i := 0; i < 16; i++ {
				if err := na.Send(p, nb.ID, 4096, token); err != nil {
					sim.Failf("bench: send: %v", err)
				}
			}
			done.Send(v)
		}
	})
	var stepErr error
	missed := false
	measure(t, "simnet send", func() {
		ctl.Send(token)
		if err := eng.RunUntil(eng.Now().Add(stepHorizon)); err != nil {
			stepErr = err
		}
		if _, ok := done.TryRecv(); !ok {
			missed = true
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if missed {
		t.Fatal("a step ended before the send batch completed")
	}
}

// rdmaPair builds two HCA-equipped nodes with statically registered
// buffers, ready for steady-state verbs traffic.
func rdmaPair(t testing.TB) (eng *sim.Engine, qa, qb *ib.QP, sges []ib.SGE, raddr mem.Addr, rkey ib.Key) {
	t.Helper()
	eng = sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	a := ib.NewHCA(net.AddNode("a"), mem.NewAddrSpace("a"), ib.DefaultParams())
	b := ib.NewHCA(net.AddNode("b"), mem.NewAddrSpace("b"), ib.DefaultParams())
	qa, qb = ib.Connect(a, b)
	const bufLen = 64 * 1024
	la := a.Space().Malloc(bufLen)
	lb := b.Space().Malloc(bufLen)
	if _, err := a.RegisterStatic(mem.Extent{Addr: la, Len: bufLen}); err != nil {
		t.Fatal(err)
	}
	mrB, err := b.RegisterStatic(mem.Extent{Addr: lb, Len: bufLen})
	if err != nil {
		t.Fatal(err)
	}
	sges = []ib.SGE{{Addr: la, Len: 2048}, {Addr: la + 8192, Len: 2048}}
	return eng, qa, qb, sges, lb, mrB.Key
}

// TestQPSendAllocFree covers the (ib.QP).Send and (ib.HCA).receive roots:
// channel-semantics messages ride pooled wire structs end to end.
func TestQPSendAllocFree(t *testing.T) {
	eng, qa, qb, _, _, _ := rdmaPair(t)
	sleeper(eng)
	ctl := eng.NewMailbox("ctl")
	done := eng.NewMailbox("done")
	var token any = 1
	eng.Go("rx", func(p *sim.Proc) {
		for {
			qb.Recv(p)
		}
	})
	eng.Go("tx", func(p *sim.Proc) {
		for {
			v := ctl.Recv(p)
			for i := 0; i < 16; i++ {
				if err := qa.Send(p, 4096, token); err != nil {
					sim.Failf("bench: qp send: %v", err)
				}
			}
			done.Send(v)
		}
	})
	var stepErr error
	missed := false
	measure(t, "qp send", func() {
		ctl.Send(token)
		if err := eng.RunUntil(eng.Now().Add(stepHorizon)); err != nil {
			stepErr = err
		}
		if _, ok := done.TryRecv(); !ok {
			missed = true
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if missed {
		t.Fatal("a step ended before the send batch completed")
	}
}

// TestRDMAAllocFree covers the (ib.QP).RDMAWrite, (ib.QP).RDMARead,
// (ib.HCA).receive and (ib.HCA).respond roots: one-sided transfers with
// pooled wire structs, pooled reply mailboxes, and pooled scratch buffers.
func TestRDMAAllocFree(t *testing.T) {
	eng, qa, _, sges, raddr, rkey := rdmaPair(t)
	sleeper(eng)
	ctl := eng.NewMailbox("ctl")
	done := eng.NewMailbox("done")
	var token any = 1
	eng.Go("initiator", func(p *sim.Proc) {
		for {
			v := ctl.Recv(p)
			for i := 0; i < 8; i++ {
				if err := qa.RDMAWrite(p, sges, raddr, rkey); err != nil {
					sim.Failf("bench: rdma write: %v", err)
				}
				if err := qa.RDMARead(p, sges, raddr, rkey); err != nil {
					sim.Failf("bench: rdma read: %v", err)
				}
			}
			done.Send(v)
		}
	})
	var stepErr error
	missed := false
	measure(t, "rdma write+read", func() {
		ctl.Send(token)
		if err := eng.RunUntil(eng.Now().Add(stepHorizon)); err != nil {
			stepErr = err
		}
		if _, ok := done.TryRecv(); !ok {
			missed = true
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if missed {
		t.Fatal("a step ended before the RDMA batch completed")
	}
}

// TestDisabledTracerAllocFree covers the trace roots ((trace.Tracer).Start,
// (trace.Span).End/EndErr/SetBytes): with no tracer attached the span API
// must cost nothing, because every simulator hot path calls it
// unconditionally.
func TestDisabledTracerAllocFree(t *testing.T) {
	var tr *trace.Tracer
	measure(t, "disabled tracer", func() {
		for i := 0; i < 64; i++ {
			sp := tr.Start(0, trace.Ctx(i), "node", "bench.span", trace.StageOther)
			sp.SetBytes(4096)
			sp.Annotate("i=%d", i)
			sp.End(sim.Time(i))
		}
	})
}

// TestCacheHitAllocFree covers the (pcache.File).tryFast root: a
// steady-state cache hit is a mutex handoff, page-table lookups, arena
// copies, and one memcpy-time sleep — no allocator traffic. The operand
// slices are built once and reused, as a real caller's inner loop would.
func TestCacheHitAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	c := pvfs.NewCluster(eng, pvfs.DefaultConfig(), 2, 1)
	sleeper(eng)
	ctl := eng.NewMailbox("cachectl")
	done := eng.NewMailbox("cachedone")
	var token any = 1
	const (
		pageSize = 8 << 10
		nPages   = 4
		opLen    = 2048
	)
	cl := c.Clients[0]
	rbuf := cl.Space().Malloc(opLen)
	segs := make([]ib.SGE, 1)
	accs := make([]pvfs.OffLen, 1)
	eng.Go("cacheapp", func(p *sim.Proc) {
		fh := cl.Open(p, "hot")
		base := cl.Space().Malloc(nPages * pageSize)
		sim.Must(fh.Write(p, base, nPages*pageSize, 0, pvfs.OpOptions{}))
		cf := pcache.New(fh, pcache.Config{PageSize: pageSize, Pages: 2 * nPages})
		segs[0] = ib.SGE{Addr: rbuf, Len: opLen}
		for i := int64(0); i < nPages; i++ {
			accs[0] = pvfs.OffLen{Off: i * pageSize, Len: opLen}
			sim.Must(cf.ReadList(p, segs, accs))
		}
		for {
			v := ctl.Recv(p)
			for i := 0; i < 64; i++ {
				accs[0] = pvfs.OffLen{Off: int64(i%nPages)*pageSize + 512, Len: opLen}
				sim.Must(cf.ReadList(p, segs, accs))
			}
			done.Send(v)
		}
	})
	var stepErr error
	missed := false
	measure(t, "cache hit", func() {
		ctl.Send(token)
		if err := eng.RunUntil(eng.Now().Add(stepHorizon)); err != nil {
			stepErr = err
		}
		if _, ok := done.TryRecv(); !ok {
			missed = true
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if missed {
		t.Fatal("a step ended before the hit batch completed")
	}
}

// TestListOpAllocFree covers the list-I/O roots — (pvfs.opPlan).split, the
// chunk cursor, (ogr.Scratch).RegisterBuffers, the pin-down cache's Get and
// Put, (sieve.Plan).planWindows and the daemon's two handlers — and
// everything between FileHandle.WriteList/ReadList and the reply: in steady
// state an operation describes itself in its client's recycled plan, plans
// its group registration there and finds its buffers in the pin-down cache,
// its requests and replies ride recycled records, and the daemon plans its
// windows in its own scratch, and the child processes of an operation that
// spans servers run on recycled carriers whose process records come with
// them. So every case, one server or four, allocates nothing.
func TestListOpAllocFree(t *testing.T) {
	const (
		stripe  = 64 << 10
		opsStep = 8
	)
	// strided lays n pieces of the given length over memory and, with the
	// given stride, over the file.
	strided := func(base mem.Addr, n, length, stride int64) (segs []ib.SGE, accs []pvfs.OffLen) {
		for i := int64(0); i < n; i++ {
			segs = append(segs, ib.SGE{Addr: base + mem.Addr(i*length), Len: length})
			accs = append(accs, pvfs.OffLen{Off: i * stride, Len: length})
		}
		return
	}
	for _, tc := range []struct {
		name       string
		n, length  int64
		stride     int64
		opts       pvfs.OpOptions
		registered bool // the buffer is registered up front (RegExplicit)
	}{
		// The Multiple I/O shape: 3 kB inside one stripe, one request.
		{"one server/pack", 1, 3 << 10, 0, pvfs.OpOptions{Transfer: pvfs.ForcePack, Sieve: sieve.Never}, false},
		// 160 pairs on one server: cut into two requests by the pair limit,
		// each a sieved window.
		{"one server/pack/cut/ads", 160, 256, 384, pvfs.OpOptions{Transfer: pvfs.ForcePack, Sieve: sieve.Auto}, false},
		{"one server/gather/ads", 16, 2 << 10, 3 << 10, pvfs.OpOptions{Transfer: pvfs.ForceGather, Reg: pvfs.RegExplicit, Sieve: sieve.Auto}, true},
		{"one server/gather", 16, 2 << 10, 3 << 10, pvfs.OpOptions{Transfer: pvfs.ForceGather, Reg: pvfs.RegExplicit, Sieve: sieve.Never}, true},
		// The same under the default registration policy: OGR through the
		// pin-down cache.
		{"one server/gather/cached/ads", 16, 2 << 10, 3 << 10, pvfs.OpOptions{Transfer: pvfs.ForceGather, Sieve: sieve.Auto}, false},
		{"one server/gather/cached", 16, 2 << 10, 3 << 10, pvfs.OpOptions{Transfer: pvfs.ForceGather, Sieve: sieve.Never}, false},
		// The Figure 8 list shape: 64 pieces of 3 kB over four servers.
		{"four servers/pack", 64, 3 << 10, 16 << 10, pvfs.OpOptions{Transfer: pvfs.ForcePack, Sieve: sieve.Never}, false},
		{"four servers/gather/ads", 64, 3 << 10, 16 << 10, pvfs.OpOptions{Transfer: pvfs.ForceGather, Reg: pvfs.RegExplicit, Sieve: sieve.Auto}, true},
		{"four servers/gather/cached/ads", 64, 3 << 10, 16 << 10, pvfs.OpOptions{Transfer: pvfs.ForceGather, Sieve: sieve.Auto}, false},
		{"four servers/gather/cached", 64, 3 << 10, 16 << 10, pvfs.OpOptions{Transfer: pvfs.ForceGather, Sieve: sieve.Never}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c := pvfs.NewCluster(eng, pvfs.DefaultConfig(), 4, 1)
			defer eng.Shutdown()
			if c.Cfg.StripeSize != stripe {
				t.Fatalf("stripe size %d: the cases assume %d", c.Cfg.StripeSize, stripe)
			}
			sleeper(eng)
			ctl := eng.NewMailbox("listctl")
			done := eng.NewMailbox("listdone")
			var token any = 1
			cl := c.Clients[0]
			base := cl.Space().Malloc(tc.n * tc.length)
			segs, accs := strided(base, tc.n, tc.length, tc.stride)
			eng.Go("listapp", func(p *sim.Proc) {
				fh := cl.Open(p, "hot")
				if tc.registered {
					_, err := cl.RegisterRegion(p, mem.Extent{Addr: base, Len: tc.n * tc.length})
					sim.Must(err)
				}
				for {
					v := ctl.Recv(p)
					for i := 0; i < opsStep; i++ {
						sim.Must(fh.WriteList(p, segs, accs, tc.opts))
						sim.Must(fh.ReadList(p, segs, accs, tc.opts))
					}
					done.Send(v)
				}
			})
			var stepErr error
			missed := false
			step := func() {
				ctl.Send(token)
				if err := eng.RunUntil(eng.Now().Add(stepHorizon)); err != nil {
					stepErr = err
				}
				if _, ok := done.TryRecv(); !ok {
					missed = true
				}
			}
			for i := 0; i < warmups; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(runs, step); avg != 0 {
				t.Errorf("%.1f allocs per step of %d writes and %d reads, want 0", avg, opsStep, opsStep)
			}
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if missed {
				t.Fatal("a step ended before the operations completed")
			}
		})
	}
}

// TestSyncAllocFree covers the (localfs.pageCache).flushFile root: an fsync
// of a file with runs of dirty blocks collects them in the cache's own list,
// sorts it in place and writes the runs. SyncAll, which DropCaches runs,
// lists the files in the file system's own slice.
func TestSyncAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	fs := localfs.New(eng, disk.New(eng, "disk", disk.DefaultParams()), localfs.DefaultParams())
	sleeper(eng)
	ctl := eng.NewMailbox("syncctl")
	done := eng.NewMailbox("syncdone")
	var token any = 1
	block := make([]byte, 4<<10)
	eng.Go("syncer", func(p *sim.Proc) {
		f, g := fs.Open(p, "dirty"), fs.Open(p, "other")
		for {
			v := ctl.Recv(p)
			// Three runs, dirtied out of order.
			for _, blk := range []int64{40, 7, 8, 9, 41, 100, 6} {
				f.WriteAt(p, blk*int64(len(block)), block)
			}
			f.Sync(p)
			g.WriteAt(p, 0, block)
			fs.SyncAll(p)
			done.Send(v)
		}
	})
	var stepErr error
	missed := false
	measure(t, "sync", func() {
		ctl.Send(token)
		if err := eng.RunUntil(eng.Now().Add(stepHorizon)); err != nil {
			stepErr = err
		}
		if _, ok := done.TryRecv(); !ok {
			missed = true
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if missed {
		t.Fatal("a step ended before the sync completed")
	}
}
