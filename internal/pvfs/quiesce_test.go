package pvfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/metrics"
	"pvfsib/internal/sim"
)

// pinning is what every adapter of the cluster has registered.
type pinning struct {
	bytes int64
	mrs   int
}

func pinned(c *Cluster) pinning {
	var r pinning
	add := func(h *ib.HCA) {
		r.bytes += h.PinnedBytes()
		r.mrs += h.NumMRs()
	}
	for _, s := range c.Servers {
		add(s.hca)
	}
	for _, cl := range c.Clients {
		add(cl.hca)
	}
	return r
}

// TestQuiescenceAfterMixedScript: every client writes a strided list across
// all servers, syncs, reads it back through OGR and again as one declared
// allocation, does a one-server write and read, stats and removes its file
// — fault-free and under the storm plan, traced. When
// the script is done nothing of it is left anywhere on the message path: no
// event pending, no message staged at a port or inside an adapter, every
// read responder parked idle and nothing else parked, and pinning back at
// what set-up registered. Nor in any pool (Cluster.census): fault-free
// everything taken from a free list, a scratch pool or a staging pool has
// been recycled into one, but for the carriers of the parked service
// processes; under faults nothing is recycled twice (a message, wire record
// or record dropped on a cut link or discarded by a down adapter is the
// garbage collector's) and the engine's pools are exact: no timeout record
// is out and no carrier but the parked processes', no pin-down cache
// reference is held and no span is open — on one engine shard and on four,
// where requests and replies carry objects from shard to shard.
func TestQuiescenceAfterMixedScript(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%t", faulty), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { quiescence(t, faulty, shards) })
			}
		})
	}
}

func quiescence(t *testing.T, faulty bool, shards int) {
	cfg := DefaultConfig()
	cfg.Shards = shards
	if faulty {
		cfg.Faults = stormPlan(7)
	}
	c := NewCluster(sim.NewEngine(), cfg, 4, 4)
	mx := c.EnableMetrics(metrics.Config{})
	c.EnableSpans()
	base := pinned(c)
	for ci, cl := range c.Clients {
		c.Eng.GoOn(cl.node.Group(), fmt.Sprintf("script%d", ci), func(p *sim.Proc) {
			quiesceScript(t, p, cl, ci)
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); faulty && (s.Retries == 0 || s.Timeouts == 0) {
		t.Errorf("plan not exercised: %d retries, %d timeouts", s.Retries, s.Timeouts)
	}
	if n := c.Eng.Pending(); n != 0 {
		t.Errorf("%d events pending", n)
	}
	if now := pinned(c); now != base {
		t.Errorf("pinning %+v, %+v after set-up", now, base)
	}
	for _, name := range c.names {
		if strings.HasSuffix(name, ".disk") {
			continue
		}
		for _, g := range []string{"net.inflight", "net.tx.queue", "ib.sendq", "ib.reads.outstanding"} {
			if v := mx.Gauge(name, g).Current(); v != 0 {
				t.Errorf("%s: %s = %d at quiescence", name, g, v)
			}
		}
	}
	// With no event left, a further Run finds only daemons parked: one
	// idle read responder per adapter, the I/O daemons' and the manager's
	// connection loops and the clients' recall daemons, all waiting for a
	// message.
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	nS, nC := int64(len(c.Servers)), int64(len(c.Clients))
	daemons := (nS + nC) + nS*nC + (nS + nC) + nC
	census := c.census()
	pools := []string{"sim.events", "sim.carriers", "sim.timeouts", "simnet.messages", "ib.wires", "ib.read-mailboxes",
		"ib.scratch", "ib.staging", "ib.mrs", "ib.regcache-refs", "localfs.loans", "pvfs.records",
		"pvfs.plans", "pvfs.iod-scratch", "trace.open"}
	for _, pool := range pools {
		out, want := census[pool], int64(0)
		if pool == "sim.carriers" {
			want = daemons
		}
		// The engine's own pools lose nothing to a fault: with no event
		// left, every timer has fired and every live process is parked.
		// Nor do the loans: every path out of a read handler releases its
		// loan with its staging buffer. Every operation puts back the
		// pin-down cache references it took and ends every span it opened,
		// whatever failed, and every region record is registered or free.
		exact := !faulty || strings.HasPrefix(pool, "sim.") || pool == "ib.mrs" || pool == "ib.regcache-refs" ||
			pool == "localfs.loans" || pool == "trace.open"
		if out < 0 || exact && out != want {
			t.Errorf("%s: %d taken and not recycled, want %d", pool, out, want)
		}
	}
	if len(census) != len(pools) {
		t.Errorf("census %v, want the pools %v", census, pools)
	}
	// A staging buffer holds storage only while it is lent: every one is
	// home and unbacked, so no stale byte can be read out of it.
	for _, s := range c.Servers {
		c.Eng.GoOn(s.node.Group(), "probe", func(p *sim.Proc) {
			var bufs []*ib.Buffer
			for range c.Cfg.StagingBuffers {
				b := s.staging.Get(p)
				if err := s.space.ReadInto(b.Addr, make([]byte, 1)); err == nil {
					t.Errorf("io%d: staging buffer at %#x is backed at quiescence", s.idx, uint64(b.Addr))
				}
				bufs = append(bufs, b)
			}
			for _, b := range bufs {
				b.Put()
			}
		})
	}
	if err := c.Eng.Run(); err != nil {
		t.Errorf("the staging probe did not finish: %v", err)
	}
	c.Eng.Shutdown()
}

// quiesceScript is one client's share of TestQuiescenceAfterMixedScript.
func quiesceScript(t *testing.T, p *sim.Proc, cl *Client, ci int) {
	const (
		segLen = 4 << 10
		nSegs  = 48
		stride = 24 << 10
	)
	fh := cl.Open(p, fmt.Sprintf("quiesce%d", ci))
	total := int64(segLen * nSegs)
	src, want := fill(cl, total, byte(ci))
	dst := cl.Space().Malloc(total)
	var wsegs, rsegs []ib.SGE
	var accs []OffLen
	for i := 0; i < nSegs; i++ {
		wsegs = append(wsegs, ib.SGE{Addr: src + mem.Addr(i*segLen), Len: segLen})
		rsegs = append(rsegs, ib.SGE{Addr: dst + mem.Addr(i*segLen), Len: segLen})
		accs = append(accs, OffLen{Off: int64(i) * stride, Len: segLen})
	}
	if err := fh.WriteList(p, wsegs, accs, OpOptions{}); err != nil {
		t.Errorf("cn%d: WriteList: %v", ci, err)
		return
	}
	fh.Sync(p)
	if err := fh.ReadList(p, rsegs, accs, OpOptions{}); err != nil {
		t.Errorf("cn%d: ReadList: %v", ci, err)
		return
	}
	if got, err := cl.Space().Read(dst, total); err != nil || !bytes.Equal(got, want) {
		t.Errorf("cn%d: list read-back differs (%v)", ci, err)
	}
	// Again through the pin-down cache, as one declared allocation.
	declared := OpOptions{Reg: RegDeclared, Allocation: mem.Extent{Addr: dst, Len: total}}
	if err := fh.ReadList(p, rsegs, accs, declared); err != nil {
		t.Errorf("cn%d: declared ReadList: %v", ci, err)
		return
	}
	// A 3 kB piece inside one stripe: one server, the Multiple I/O shape.
	if err := fh.Write(p, src, 3<<10, 1<<10, OpOptions{}); err != nil {
		t.Errorf("cn%d: Write: %v", ci, err)
		return
	}
	if err := fh.Read(p, dst, 3<<10, 1<<10, OpOptions{}); err != nil {
		t.Errorf("cn%d: Read: %v", ci, err)
		return
	}
	if got, err := cl.Space().Read(dst, 3<<10); err != nil || !bytes.Equal(got, want[:3<<10]) {
		t.Errorf("cn%d: one-server read-back differs (%v)", ci, err)
	}
	if size, want := fh.Stat(p), int64(nSegs-1)*stride+segLen; size != want {
		t.Errorf("cn%d: Stat = %d, want %d", ci, size, want)
	}
	cl.Remove(p, fh.Name())
	if err := cl.RegCache().Flush(p); err != nil {
		t.Errorf("cn%d: flushing the pin-down cache: %v", ci, err)
	}
}

// TestFanOutSpawnsAllButTheFirstPart: the servers' adapters are down, so a
// write parks forever waiting for its replies and the deadlock report names
// every process the operation is running on. A write inside one stripe runs
// on its caller alone; one over four stripes runs the first server's part on
// the caller and one child for each of the other three.
func TestFanOutSpawnsAllButTheFirstPart(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want []string
	}{
		{3 << 10, []string{"app"}},
		{4 * 64 << 10, []string{"app", "op[cn0-io1]", "op[cn0-io2]", "op[cn0-io3]"}},
	} {
		c := newCluster(t, 4, 1)
		cl := c.Clients[0]
		if c.Cfg.StripeSize != 64<<10 {
			t.Fatalf("stripe size %d: the cases assume 64 kB stripes", c.Cfg.StripeSize)
		}
		src, _ := fill(cl, tc.n, 1)
		c.Eng.Go("app", func(p *sim.Proc) {
			fh := cl.Open(p, "f")
			for _, s := range c.Servers {
				s.hca.SetDown(true)
			}
			err := fh.Write(p, src, tc.n, 0, OpOptions{})
			t.Errorf("write to dead servers returned (%v)", err)
		})
		de, ok := c.Eng.Run().(*sim.DeadlockError)
		if !ok {
			t.Fatalf("%d bytes: the write did not park", tc.n)
		}
		if got := de.Parked; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%d bytes: the operation runs on %v, want %v", tc.n, got, tc.want)
		}
		c.Eng.Shutdown()
	}
}

// TestChunkPartPassThroughEqualsCut: for parts as splitOp makes them,
// handing a part that fits one request through as the chunk is the same as
// cutting it element by element — and a part that does not fit is cut.
func TestChunkPartPassThroughEqualsCut(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	passed := 0
	for iter := 0; iter < 500; iter++ {
		stripe := int64(1) << (9 + rng.Intn(8))
		nServers := 1 + rng.Intn(5)
		var segs []ib.SGE
		var accs []OffLen
		var left int64
		addr, off := mem.Addr(0x10000), int64(rng.Intn(4096))
		for n := 1 + rng.Intn(12); n > 0; n-- {
			l := int64(1 + rng.Intn(3*int(stripe)))
			accs = append(accs, OffLen{Off: off, Len: l})
			off += l + int64(rng.Intn(2))*int64(rng.Intn(2*int(stripe))) // sometimes adjacent
			left += l
		}
		for left > 0 {
			l := min(left, int64(1+rng.Intn(3*int(stripe))))
			segs = append(segs, ib.SGE{Addr: addr, Len: l})
			addr += mem.Addr(l + int64(rng.Intn(2))*64) // sometimes adjacent
			left -= l
		}
		parts, err := splitOp(segs, accs, stripe, nServers)
		if err != nil {
			t.Fatal(err)
		}
		maxPairs := 1 + rng.Intn(16)
		maxBytes := stripe << rng.Intn(4)
		checkSplitChunks(t, segs, accs, stripe, nServers, maxPairs, maxBytes)
		for _, part := range parts {
			got, want := chunkPart(part, maxPairs, maxBytes), refCutPart(part, maxPairs, maxBytes)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("part %+v, limits %d pairs / %d bytes:\nchunkPart %+v\ncutPart   %+v", part, maxPairs, maxBytes, got, want)
			}
			if len(got) == 1 && &got[0].accs[0] == &part.accs[0] {
				passed++
			}
		}
	}
	if passed == 0 {
		t.Error("no generated part took the pass-through")
	}
}

// TestPackTakeKeepsPoolBalanced: a pack write of no bytes into a receive
// buffer nothing ever landed in takes nothing and lends the buffer nothing,
// so the daemon's pool stays balanced and the buffer stays reserved for the
// next write; a write that landed bytes trades the buffer's storage for a
// pool buffer, and the payload going back to the pool balances it again.
func TestPackTakeKeepsPoolBalanced(t *testing.T) {
	c := NewCluster(sim.NewEngine(), DefaultConfig(), 1, 1)
	s := c.Servers[0]
	size := c.Cfg.FastBufSize
	sc := &serverConn{srv: s, recvBuf: &ib.Buffer{Addr: s.space.Malloc(size), Size: size}}
	if data := sc.takePacked(0); data != nil || s.scratch.Out() != 0 {
		t.Errorf("a zero-length pack write took %d bytes and left %d pool buffers out", len(data), s.scratch.Out())
	}
	if err := s.space.Write(sc.recvBuf.Addr, []byte("packed")); err != nil {
		t.Fatalf("the receive buffer no longer takes a write: %v", err)
	}
	data := sc.takePacked(6)
	if string(data) != "packed" || s.scratch.Out() != 1 {
		t.Errorf("took %q with %d pool buffers out, want \"packed\" and the one lent", data, s.scratch.Out())
	}
	s.scratch.Put(data)
	if s.scratch.Out() != 0 {
		t.Errorf("%d pool buffers out after the payload went back", s.scratch.Out())
	}
	if err := s.space.Write(sc.recvBuf.Addr+mem.Addr(size)-1, []byte{1}); err != nil {
		t.Errorf("the lent pool buffer does not back the whole receive buffer: %v", err)
	}
}
