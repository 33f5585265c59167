package bench

import (
	"reflect"
	"testing"
	"time"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/sim/simtest"
	"pvfsib/internal/simnet"
	"pvfsib/internal/trace"
)

// These tests hold the simulator's data paths to their steady-state
// contract, "allocates nothing", through simtest.AllocFree or
// simtest.Measure: a warm-up fills the free lists and queue backing arrays,
// then testing.AllocsPerRun must read 0. The simnet send, QP send and sync
// paths have theirs in their own packages.

// TestEngineTurnoverAllocFree covers (sim.Engine).RunUntil: a chain of
// timed callbacks through the event heap and the ready queue.
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
	simtest.Measure(t, "engine turnover", func() {
		remaining = 64
		eng.After(time.Microsecond, tick)
		if err := eng.RunUntil(eng.Now().Add(time.Millisecond)); err != nil {
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
	req := eng.NewMailbox("req")
	rsp := eng.NewMailbox("rsp")
	var token any = 1
	eng.Go("server", func(p *sim.Proc) {
		for {
			rsp.Send(req.Recv(p))
		}
	})
	simtest.AllocFree(t, eng, "mailbox ping-pong", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			req.Send(token)
			rsp.Recv(p)
		}
	})
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

// TestRDMAAllocFree covers (ib.QP).RDMAWrite and RDMARead with the peer's
// receive handler and read responder: one-sided transfers with pooled wire
// structs, pooled reply mailboxes, and pooled scratch buffers.
func TestRDMAAllocFree(t *testing.T) {
	eng, qa, _, sges, raddr, rkey := rdmaPair(t)
	simtest.AllocFree(t, eng, "rdma write+read", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := qa.RDMAWrite(p, sges, raddr, rkey); err != nil {
				sim.Failf("bench: rdma write: %v", err)
			}
			if err := qa.RDMARead(p, sges, raddr, rkey); err != nil {
				sim.Failf("bench: rdma read: %v", err)
			}
		}
	})
}

// TestQuiescentRunAllocFree covers (pvfs.Cluster).Run, which is the
// engine's Run: an application process writes and the run returns once it
// is done, with every adapter's responder, every daemon's connection loop,
// the manager's and the recall daemons parked for good. They are daemons, so
// the run is not a deadlock and builds no report — a step allocates nothing
// — while a process of the application parked for good still is one, named
// alone.
func TestQuiescentRunAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	c := pvfs.NewCluster(eng, pvfs.DefaultConfig(), 4, 2)
	defer eng.Shutdown()
	cl := c.Clients[0]
	buf := cl.Space().Malloc(4 << 10)
	var fh *pvfs.FileHandle
	app := func(p *sim.Proc) {
		if fh == nil {
			fh = cl.Open(p, "quiet")
		}
		sim.Must(fh.Write(p, buf, 4<<10, 0, pvfs.OpOptions{}))
	}
	var runErr error
	simtest.Measure(t, "quiescent run", func() {
		eng.GoOn(cl.Node().Group(), "app", app)
		if err := c.Run(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	never := eng.NewMailbox("never")
	eng.GoOn(c.Clients[1].Node().Group(), "stuck", func(p *sim.Proc) { never.Recv(p) })
	eng.GoOn(cl.Node().Group(), "app", app)
	de, ok := c.Run().(*sim.DeadlockError)
	if !ok || !reflect.DeepEqual(de.Parked, []string{"stuck"}) {
		t.Errorf("a run with one application process parked for good returned %v, want a deadlock naming it alone", de)
	}
}

// TestDisabledTracerAllocFree covers (trace.Tracer).Start and the span
// methods: with no tracer attached the span API must cost nothing, because
// every simulator hot path calls it unconditionally.
func TestDisabledTracerAllocFree(t *testing.T) {
	var tr *trace.Tracer
	simtest.Measure(t, "disabled tracer", func() {
		for i := 0; i < 64; i++ {
			sp := tr.Start(0, trace.Ctx(i), "node", "bench.span", trace.StageOther)
			sp.SetBytes(4096)
			sp.Annotate("i=%d", i)
			sp.End(sim.Time(i))
		}
	})
}

// TestCacheHitAllocFree covers (pcache.File).tryFast: a steady-state cache
// hit is a mutex handoff, page-table lookups, arena copies, and one
// memcpy-time sleep — no allocator traffic. The operand slices are built
// once and reused, as a real caller's inner loop would.
func TestCacheHitAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	c := pvfs.NewCluster(eng, pvfs.DefaultConfig(), 2, 1)
	const (
		pageSize = 8 << 10
		nPages   = 4
		opLen    = 2048
	)
	cl := c.Clients[0]
	rbuf := cl.Space().Malloc(opLen)
	segs := []ib.SGE{{Addr: rbuf, Len: opLen}}
	accs := make([]pvfs.OffLen, 1)
	var cf *pcache.File
	simtest.AllocFree(t, eng, "cache hit", func(p *sim.Proc) {
		if cf == nil {
			fh := cl.Open(p, "hot")
			base := cl.Space().Malloc(nPages * pageSize)
			sim.Must(fh.Write(p, base, nPages*pageSize, 0, pvfs.OpOptions{}))
			cf = pcache.New(fh, pcache.Config{PageSize: pageSize, Pages: 2 * nPages})
			for i := int64(0); i < nPages; i++ {
				accs[0] = pvfs.OffLen{Off: i * pageSize, Len: opLen}
				sim.Must(cf.ReadList(p, segs, accs))
			}
		}
		for i := 0; i < 64; i++ {
			accs[0] = pvfs.OffLen{Off: int64(i%nPages)*pageSize + 512, Len: opLen}
			sim.Must(cf.ReadList(p, segs, accs))
		}
	})
}

// TestListOpAllocFree covers the list-I/O path — (pvfs.opPlan).split, the
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
			cl := c.Clients[0]
			base := cl.Space().Malloc(tc.n * tc.length)
			segs, accs := strided(base, tc.n, tc.length, tc.stride)
			var fh *pvfs.FileHandle
			simtest.AllocFree(t, eng, "list ops", func(p *sim.Proc) {
				if fh == nil {
					fh = cl.Open(p, "hot")
					if tc.registered {
						_, err := cl.RegisterRegion(p, mem.Extent{Addr: base, Len: tc.n * tc.length})
						sim.Must(err)
					}
				}
				for i := 0; i < opsStep; i++ {
					sim.Must(fh.WriteList(p, segs, accs, tc.opts))
					sim.Must(fh.ReadList(p, segs, accs, tc.opts))
				}
			})
		})
	}
}
