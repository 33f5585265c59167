package pvfs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

func newCluster(t *testing.T, nServers, nClients int) *Cluster {
	t.Helper()
	return NewCluster(sim.NewEngine(), DefaultConfig(), nServers, nClients)
}

// app runs fn as an application process on the cluster and drives the
// simulation to completion.
func app(t *testing.T, c *Cluster, fn func(p *sim.Proc)) {
	t.Helper()
	c.Eng.Go("app", fn)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// fill allocates a client buffer and fills it with a deterministic pattern.
func fill(cl *Client, n int64, seed byte) (mem.Addr, []byte) {
	addr := cl.Space().Malloc(n)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(int(seed) + i*7 + i/253)
	}
	if err := cl.Space().Write(addr, data); err != nil {
		panic(err)
	}
	return addr, data
}

func TestLocate(t *testing.T) {
	// 64k stripes over 4 servers: offset 0 -> srv0, 64k -> srv1,
	// 256k -> srv0 at local 64k.
	cases := []struct {
		off   int64
		srv   int
		local int64
	}{
		{0, 0, 0},
		{65536, 1, 0},
		{65536*4 + 100, 0, 65536 + 100},
		{65536 * 7, 3, 65536},
		{100, 0, 100},
	}
	for _, c := range cases {
		srv, local := locate(c.off, 65536, 4)
		if srv != c.srv || local != c.local {
			t.Errorf("locate(%d) = (%d, %d), want (%d, %d)", c.off, srv, local, c.srv, c.local)
		}
	}
}

func TestSplitOpPreservesBytesAndOrder(t *testing.T) {
	segs := []ib.SGE{{Addr: 0x1000, Len: 100}, {Addr: 0x9000, Len: 200}}
	accs := []OffLen{{Off: 50, Len: 120}, {Off: 70000, Len: 180}}
	parts, err := splitOp(segs, accs, 64<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range parts {
		if TotalOffLen(p.accs) != ib.TotalLen(p.segs) {
			t.Errorf("server %d: file bytes %d != mem bytes %d", p.srv, TotalOffLen(p.accs), ib.TotalLen(p.segs))
		}
		total += TotalOffLen(p.accs)
	}
	if total != 300 {
		t.Errorf("split total = %d, want 300", total)
	}
}

func TestSplitOpRejectsMismatchedTotals(t *testing.T) {
	_, err := splitOp([]ib.SGE{{Addr: 1, Len: 10}}, []OffLen{{Off: 0, Len: 20}}, 65536, 2)
	if err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestChunkPartLimits(t *testing.T) {
	part := &serverPart{srv: 0}
	for i := 0; i < 300; i++ {
		part.accs = append(part.accs, OffLen{Off: int64(i) * 1000, Len: 100})
		part.segs = append(part.segs, ib.SGE{Addr: mem.Addr(0x10000 + i*200), Len: 100})
	}
	chunks := chunkPart(part, 128, 1<<30)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3 (300 pairs / 128)", len(chunks))
	}
	var pairs int
	for _, ch := range chunks {
		if len(ch.accs) > 128 {
			t.Errorf("chunk has %d pairs", len(ch.accs))
		}
		if ib.TotalLen(ch.segs) != ch.total || TotalOffLen(ch.accs) != ch.total {
			t.Error("chunk streams misaligned")
		}
		pairs += len(ch.accs)
	}
	if pairs != 300 {
		t.Errorf("chunks cover %d pairs", pairs)
	}
}

func TestChunkPartSplitsBigRegionsByBytes(t *testing.T) {
	part := &serverPart{
		srv:  0,
		accs: []OffLen{{Off: 0, Len: 10 << 20}},
		segs: []ib.SGE{{Addr: 0x100000, Len: 10 << 20}},
	}
	chunks := chunkPart(part, 128, 4<<20)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3 (10MB / 4MB)", len(chunks))
	}
	if chunks[0].total != 4<<20 || chunks[2].total != 2<<20 {
		t.Errorf("chunk sizes: %d, %d, %d", chunks[0].total, chunks[1].total, chunks[2].total)
	}
}

func TestContiguousRoundTrip(t *testing.T) {
	c := newCluster(t, 4, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "file")
		const n = 1 << 20 // spans many stripes on 4 servers
		src, want := fill(cl, n, 1)
		if err := fh.Write(p, src, n, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		dst := cl.Space().Malloc(n)
		if err := fh.Read(p, dst, n, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		got, _ := cl.Space().Read(dst, n)
		if !bytes.Equal(got, want) {
			t.Error("contiguous round trip mismatch")
		}
	})
}

func TestDataIsStripedAcrossServers(t *testing.T) {
	c := newCluster(t, 4, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "file")
		const n = 512 << 10 // 8 stripes of 64k over 4 servers
		src, _ := fill(cl, n, 9)
		if err := fh.Write(p, src, n, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		for i, s := range c.Servers {
			f := s.file(p, fh.id)
			if f.Size() != 128<<10 {
				t.Errorf("server %d stores %d bytes, want 128k", i, f.Size())
			}
		}
	})
}

func TestListIORoundTripNoncontigBoth(t *testing.T) {
	c := newCluster(t, 4, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "file")
		// Noncontiguous memory: rows of a subarray. Noncontiguous file:
		// strided columns. Strides cross stripe boundaries.
		base := cl.Space().Malloc(1 << 20)
		var segs []ib.SGE
		var accs []OffLen
		var want []byte
		cursor := int64(0)
		for i := 0; i < 100; i++ {
			seg := ib.SGE{Addr: base + mem.Addr(i*8192), Len: 1000}
			piece := bytes.Repeat([]byte{byte(i + 1)}, 1000)
			if err := cl.Space().Write(seg.Addr, piece); err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
			accs = append(accs, OffLen{Off: cursor, Len: 1000})
			want = append(want, piece...)
			cursor += 33000 // strides across 64k stripes
		}
		if err := fh.WriteList(p, segs, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		// Read back into different, also noncontiguous, buffers.
		rbase := cl.Space().Malloc(1 << 20)
		var rsegs []ib.SGE
		for i := 0; i < 100; i++ {
			rsegs = append(rsegs, ib.SGE{Addr: rbase + mem.Addr(i*4096), Len: 1000})
		}
		if err := fh.ReadList(p, rsegs, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		var got []byte
		for _, s := range rsegs {
			b, _ := cl.Space().Read(s.Addr, s.Len)
			got = append(got, b...)
		}
		if !bytes.Equal(got, want) {
			t.Error("list I/O round trip mismatch")
		}
	})
}

func TestHybridChoosesPackForSmallGatherForLarge(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "file")
		// Small op: must pack (no registrations).
		src, _ := fill(cl, 4096, 3)
		if err := fh.Write(p, src, 4096, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations; n != 0 {
			t.Errorf("small write registered %d times, want 0 (pack path)", n)
		}
		// Large op: must gather (registrations happen).
		big, _ := fill(cl, 1<<20, 4)
		if err := fh.Write(p, big, 1<<20, 1<<20, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations; n == 0 {
			t.Error("large write did not register (gather path)")
		}
	})
}

func TestForcePackAndForceGather(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "file")
		big, want := fill(cl, 256<<10, 5)
		// ForcePack splits into FastBufSize chunks, no registration.
		if err := fh.Write(p, big, 256<<10, 0, OpOptions{Transfer: ForcePack}); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations; n != 0 {
			t.Errorf("ForcePack registered %d times", n)
		}
		if got := c.Acct().WriteReqs; got != 4 {
			t.Errorf("ForcePack of 256k sent %d requests, want 4 (64k chunks)", got)
		}
		// ForceGather registers even for tiny ops.
		small, _ := fill(cl, 512, 6)
		if err := fh.Write(p, small, 512, 1<<20, OpOptions{Transfer: ForceGather}); err != nil {
			t.Fatal(err)
		}
		if cl.HCA().Counters.Registrations+cl.HCA().Counters.RegCacheHits == 0 {
			t.Error("ForceGather did not touch registration")
		}
		dst := cl.Space().Malloc(256 << 10)
		if err := fh.Read(p, dst, 256<<10, 0, OpOptions{Transfer: ForceGather}); err != nil {
			t.Fatal(err)
		}
		got, _ := cl.Space().Read(dst, 256<<10)
		if !bytes.Equal(got, want) {
			t.Error("ForcePack-write/ForceGather-read mismatch")
		}
	})
}

func TestChunkingCountsRequests(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "file")
		// 300 tiny pieces -> 3 requests (128-pair limit), single server.
		base := cl.Space().Malloc(1 << 20)
		var segs []ib.SGE
		var accs []OffLen
		for i := 0; i < 300; i++ {
			segs = append(segs, ib.SGE{Addr: base + mem.Addr(i*128), Len: 64})
			accs = append(accs, OffLen{Off: int64(i * 200), Len: 64})
		}
		if err := fh.WriteList(p, segs, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		if c.Acct().WriteReqs != 3 {
			t.Errorf("WriteReqs = %d, want 3", c.Acct().WriteReqs)
		}
	})
}

func TestSyncFlushesToDisk(t *testing.T) {
	c := newCluster(t, 2, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "file")
		src, _ := fill(cl, 256<<10, 7)
		if err := fh.Write(p, src, 256<<10, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		var before int64
		for _, s := range c.Servers {
			before += s.Disk().Counters.WriteOps
		}
		if before != 0 {
			t.Errorf("device writes before sync = %d", before)
		}
		fh.Sync(p)
		var after int64
		for _, s := range c.Servers {
			after += s.Disk().Counters.WriteOps
		}
		if after == 0 {
			t.Error("sync reached no disk")
		}
		if c.Acct().SyncReqs != 2 {
			t.Errorf("SyncReqs = %d, want 2 (one per server)", c.Acct().SyncReqs)
		}
	})
}

func TestRegPolicies(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "file")
		// One allocation carved into 64 rows.
		base := cl.Space().Malloc(1 << 20)
		var segs []ib.SGE
		var accs []OffLen
		for i := 0; i < 64; i++ {
			segs = append(segs, ib.SGE{Addr: base + mem.Addr(i*16384), Len: 8192})
			accs = append(accs, OffLen{Off: int64(i * 8192), Len: 8192})
		}
		for _, s := range segs {
			cl.Space().Write(s.Addr, bytes.Repeat([]byte{1}, int(s.Len)))
		}
		// Individual: one registration per buffer.
		r0 := cl.HCA().Counters.Registrations
		if err := fh.WriteList(p, segs, accs, OpOptions{Transfer: ForceGather, Reg: RegIndividual}); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations - r0; n != 64 {
			t.Errorf("RegIndividual registered %d, want 64", n)
		}
		// OGR: one registration for the whole span.
		r0 = cl.HCA().Counters.Registrations
		if err := fh.WriteList(p, segs, accs, OpOptions{Transfer: ForceGather, Reg: RegOGR}); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations - r0; n != 1 {
			t.Errorf("RegOGR registered %d, want 1", n)
		}
		// Cached: first op registers, second hits.
		r0 = cl.HCA().Counters.Registrations
		h0 := cl.HCA().Counters.RegCacheHits
		if err := fh.WriteList(p, segs, accs, OpOptions{Transfer: ForceGather, Reg: RegCached}); err != nil {
			t.Fatal(err)
		}
		if err := fh.WriteList(p, segs, accs, OpOptions{Transfer: ForceGather, Reg: RegCached}); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations - r0; n != 1 {
			t.Errorf("RegCached registered %d, want 1", n)
		}
		if h := cl.HCA().Counters.RegCacheHits - h0; h != 1 {
			t.Errorf("RegCached hits = %d, want 1", h)
		}
	})
}

func TestConcurrentClientsDisjointRegions(t *testing.T) {
	c := newCluster(t, 4, 4)
	const per = 256 << 10
	for i, cl := range c.Clients {
		i, cl := i, cl
		c.Eng.Go("rank", func(p *sim.Proc) {
			fh := cl.Open(p, "shared")
			src, _ := fill(cl, per, byte(i+1))
			if err := fh.Write(p, src, per, int64(i)*per, OpOptions{}); err != nil {
				t.Error(err)
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Verify with a fresh read from client 0.
	c2 := c
	c2.Eng.Go("verify", func(p *sim.Proc) {
		cl := c2.Clients[0]
		fh := cl.Open(p, "shared")
		for i := 0; i < 4; i++ {
			dst := cl.Space().Malloc(per)
			if err := fh.Read(p, dst, per, int64(i)*per, OpOptions{}); err != nil {
				t.Error(err)
				return
			}
			got, _ := cl.Space().Read(dst, per)
			_, want := fill(cl, per, byte(i+1))
			if !bytes.Equal(got, want) {
				t.Errorf("client %d's region corrupted", i)
			}
		}
	})
	if err := c2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	c := newCluster(t, 2, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "empty")
		dst := cl.Space().Malloc(4096)
		cl.Space().Write(dst, bytes.Repeat([]byte{0xFF}, 4096))
		if err := fh.Read(p, dst, 4096, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		got, _ := cl.Space().Read(dst, 4096)
		if !bytes.Equal(got, make([]byte, 4096)) {
			t.Error("unwritten region did not read as zeros")
		}
	})
}

func TestOpenSameNameSharesFile(t *testing.T) {
	c := newCluster(t, 2, 2)
	app(t, c, func(p *sim.Proc) {
		fh0 := c.Clients[0].Open(p, "x")
		fh1 := c.Clients[1].Open(p, "x")
		if fh0.id != fh1.id {
			t.Error("same name, different handles")
		}
		fh2 := c.Clients[0].Open(p, "y")
		if fh2.id == fh0.id {
			t.Error("different names share a handle")
		}
		if c.Acct().OpenReqs != 3 {
			t.Errorf("OpenReqs = %d", c.Acct().OpenReqs)
		}
	})
}

func TestSieveModeHintReachesServer(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		base := cl.Space().Malloc(1 << 20)
		var segs []ib.SGE
		var accs []OffLen
		for i := 0; i < 64; i++ {
			segs = append(segs, ib.SGE{Addr: base + mem.Addr(i*2048), Len: 512})
			accs = append(accs, OffLen{Off: int64(i * 2048), Len: 512})
		}
		if err := fh.WriteList(p, segs, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		srv := c.Servers[0]
		wins0 := srv.SieveStats.SievedWins
		// Force sieving off via hint: next op must not sieve.
		if err := fh.ReadList(p, segs, accs, OpOptions{Sieve: sieve.Never}); err != nil {
			t.Fatal(err)
		}
		if srv.SieveStats.SievedWins != wins0 {
			t.Error("sieve.Never hint ignored by server")
		}
	})
}

func TestPropertyListIOEquivalentToFlatFile(t *testing.T) {
	type wr struct {
		Off  uint32
		Len  uint16
		Seed byte
	}
	f := func(ops []wr) bool {
		if len(ops) == 0 || len(ops) > 12 {
			return true
		}
		c := NewCluster(sim.NewEngine(), DefaultConfig(), 3, 1)
		cl := c.Clients[0]
		ok := true
		c.Eng.Go("app", func(p *sim.Proc) {
			fh := cl.Open(p, "f")
			model := make([]byte, 1<<20)
			var maxEnd int64
			for _, o := range ops {
				off := int64(o.Off) % (1 << 19)
				n := int64(o.Len)%5000 + 1
				src := cl.Space().Malloc(n)
				data := bytes.Repeat([]byte{o.Seed | 1}, int(n))
				cl.Space().Write(src, data)
				if err := fh.Write(p, src, n, off, OpOptions{}); err != nil {
					ok = false
					return
				}
				copy(model[off:off+n], data)
				if off+n > maxEnd {
					maxEnd = off + n
				}
			}
			dst := cl.Space().Malloc(maxEnd)
			if err := fh.Read(p, dst, maxEnd, 0, OpOptions{}); err != nil {
				ok = false
				return
			}
			got, _ := cl.Space().Read(dst, maxEnd)
			if !bytes.Equal(got, model[:maxEnd]) {
				ok = false
			}
		})
		if err := c.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatComputesLogicalEOF(t *testing.T) {
	c := newCluster(t, 4, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		if fh.Stat(p) != 0 {
			t.Error("empty file should stat 0")
		}
		// Write 100 bytes at a large offset: EOF = off+100.
		src, _ := fill(cl, 100, 1)
		const off = 5*65536 + 1234 // stripe 5 -> server 1
		if err := fh.Write(p, src, 100, off, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := fh.Stat(p); got != off+100 {
			t.Errorf("Stat = %d, want %d", got, off+100)
		}
		// A later write at a smaller offset must not shrink EOF.
		if err := fh.Write(p, src, 100, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := fh.Stat(p); got != off+100 {
			t.Errorf("Stat after small write = %d, want %d", got, off+100)
		}
		// Contiguous multi-stripe write extending the file.
		big, _ := fill(cl, 512<<10, 2)
		if err := fh.Write(p, big, 512<<10, off+100, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := fh.Stat(p); got != off+100+512<<10 {
			t.Errorf("Stat = %d, want %d", got, off+100+512<<10)
		}
	})
}

func TestStatPropertyMatchesMaxWriteEnd(t *testing.T) {
	c := newCluster(t, 3, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		offs := []int64{0, 70000, 1 << 20, 64<<10 - 1, 3 << 20, 123456}
		var maxEnd int64
		for i, off := range offs {
			n := int64(1000 + i*7777)
			src, _ := fill(cl, n, byte(i))
			if err := fh.Write(p, src, n, off, OpOptions{}); err != nil {
				t.Fatal(err)
			}
			if off+n > maxEnd {
				maxEnd = off + n
			}
			if got := fh.Stat(p); got != maxEnd {
				t.Fatalf("after write %d: Stat = %d, want %d", i, got, maxEnd)
			}
		}
	})
}

func TestRemoveDeletesEverywhere(t *testing.T) {
	c := newCluster(t, 4, 2)
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		fh := cl.Open(p, "doomed")
		src, _ := fill(cl, 256<<10, 5)
		if err := fh.Write(p, src, 256<<10, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		cl.Remove(p, "doomed")
		// Re-opening the name creates a fresh, empty file.
		fh2 := c.Clients[1].Open(p, "doomed")
		if fh2.id == fh.id {
			t.Error("recreated file reused the old handle")
		}
		if got := fh2.Stat(p); got != 0 {
			t.Errorf("recreated file Stat = %d, want 0", got)
		}
		dst := c.Clients[1].Space().Malloc(1024)
		c.Clients[1].Space().Write(dst, bytes.Repeat([]byte{0xFF}, 1024))
		if err := fh2.Read(p, dst, 1024, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		got, _ := c.Clients[1].Space().Read(dst, 1024)
		if !bytes.Equal(got, make([]byte, 1024)) {
			t.Error("recreated file still has old data")
		}
		// Removing a nonexistent name is a no-op.
		cl.Remove(p, "never-existed")
	})
}

func TestStreamWireRoundTrip(t *testing.T) {
	cfg := ConventionalConfig()
	c := NewCluster(sim.NewEngine(), cfg, 4, 1)
	cl := c.Clients[0]
	c.Eng.Go("app", func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		// Noncontiguous list write over the stream transport.
		base := cl.Space().Malloc(1 << 20)
		var segs []ib.SGE
		var accs []OffLen
		var want []byte
		for i := 0; i < 50; i++ {
			seg := ib.SGE{Addr: base + mem.Addr(i*8192), Len: 1500}
			piece := bytes.Repeat([]byte{byte(i + 1)}, 1500)
			cl.Space().Write(seg.Addr, piece)
			segs = append(segs, seg)
			accs = append(accs, OffLen{Off: int64(i) * 40000, Len: 1500})
			want = append(want, piece...)
		}
		if err := fh.WriteList(p, segs, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations; n != 0 {
			t.Errorf("stream transport registered %d times, want 0", n)
		}
		if n := cl.HCA().Counters.RDMAWrites + cl.HCA().Counters.RDMAReads; n != 0 {
			t.Errorf("stream transport used %d RDMA ops", n)
		}
		rbase := cl.Space().Malloc(1 << 20)
		var rsegs []ib.SGE
		for i := 0; i < 50; i++ {
			rsegs = append(rsegs, ib.SGE{Addr: rbase + mem.Addr(i*2048), Len: 1500})
		}
		if err := fh.ReadList(p, rsegs, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		var got []byte
		for _, s := range rsegs {
			b, _ := cl.Space().Read(s.Addr, s.Len)
			got = append(got, b...)
		}
		if !bytes.Equal(got, want) {
			t.Error("stream round trip mismatch")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamWireIsSlowerOnConventionalNet(t *testing.T) {
	// The same 1 MB contiguous write on the IB config and the
	// conventional config: the conventional network must be much slower.
	run := func(cfg Config) sim.Duration {
		c := NewCluster(sim.NewEngine(), cfg, 2, 1)
		cl := c.Clients[0]
		var elapsed sim.Duration
		c.Eng.Go("app", func(p *sim.Proc) {
			fh := cl.Open(p, "f")
			src, _ := fill(cl, 1<<20, 1)
			t0 := p.Now()
			if err := fh.Write(p, src, 1<<20, 0, OpOptions{}); err != nil {
				t.Error(err)
			}
			elapsed = p.Now().Sub(t0)
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	ib := run(DefaultConfig())
	tcp := run(ConventionalConfig())
	if tcp < 4*ib {
		t.Errorf("conventional network (%v) should be much slower than IB (%v)", tcp, ib)
	}
}

func TestPerFileStriping(t *testing.T) {
	c := newCluster(t, 4, 2)
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		// A 4 kB-striped file spreads small writes across servers.
		fine := cl.OpenStriped(p, "fine", 4096)
		if fine.StripeSize() != 4096 {
			t.Fatalf("StripeSize = %d", fine.StripeSize())
		}
		src, want := fill(cl, 64<<10, 3)
		if err := fine.Write(p, src, 64<<10, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		// 64 kB over 4 kB stripes on 4 servers: each server holds 16 kB.
		for i, s := range c.Servers {
			if got := s.file(p, fine.id).Size(); got != 16<<10 {
				t.Errorf("server %d holds %d bytes, want 16k", i, got)
			}
		}
		// A second client opening the same name sees the same striping.
		other := c.Clients[1].Open(p, "fine")
		if other.StripeSize() != 4096 {
			t.Errorf("existing file striping = %d, want 4096", other.StripeSize())
		}
		// Round trip across the unusual striping.
		dst := c.Clients[1].Space().Malloc(64 << 10)
		if err := other.Read(p, dst, 64<<10, 0, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		got, _ := c.Clients[1].Space().Read(dst, 64<<10)
		if !bytes.Equal(got, want) {
			t.Error("fine-striped round trip mismatch")
		}
		// Stat works with the per-file striping.
		if got := other.Stat(p); got != 64<<10 {
			t.Errorf("Stat = %d, want 64k", got)
		}
		// The default-striped file is unaffected.
		coarse := cl.Open(p, "coarse")
		if coarse.StripeSize() != c.Cfg.StripeSize {
			t.Errorf("default striping = %d", coarse.StripeSize())
		}
	})
}

// TestDeterminism runs an identical mixed workload twice on fresh clusters
// and requires bit-identical outcomes: same final virtual time and same
// counter snapshot. The whole evaluation methodology rests on this.
func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, string) {
		c := newCluster(t, 3, 2)
		for i, cl := range c.Clients {
			i, cl := i, cl
			c.Eng.Go("app", func(p *sim.Proc) {
				fh := cl.Open(p, "det")
				segs := make([]ib.SGE, 0, 40)
				accs := make([]OffLen, 0, 40)
				base := cl.Space().Malloc(1 << 20)
				for j := 0; j < 40; j++ {
					seg := ib.SGE{Addr: base + mem.Addr(j*9000), Len: 1500}
					cl.Space().Write(seg.Addr, bytes.Repeat([]byte{byte(i + j)}, 1500))
					segs = append(segs, seg)
					accs = append(accs, OffLen{Off: int64(j*7000 + i*300), Len: 1500})
				}
				if err := fh.WriteList(p, segs, accs, OpOptions{}); err != nil {
					t.Error(err)
				}
				fh.Sync(p)
				if err := fh.ReadList(p, segs, accs, OpOptions{}); err != nil {
					t.Error(err)
				}
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Eng.Now(), c.Snapshot().String()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Errorf("virtual end times differ: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("snapshots differ:\n%s\n%s", s1, s2)
	}
}

// TestPropertySplitOpStreamEquality checks, for random operations, that the
// per-server parts carry exactly the same bytes in the same order as a
// byte-by-byte reference striping.
func TestPropertySplitOpStreamEquality(t *testing.T) {
	f := func(segLens, accLens []uint16, stripeShift uint8) bool {
		if len(segLens) == 0 || len(accLens) == 0 {
			return true
		}
		if len(segLens) > 12 {
			segLens = segLens[:12]
		}
		if len(accLens) > 12 {
			accLens = accLens[:12]
		}
		stripe := int64(1) << (6 + stripeShift%8) // 64B..8kB
		const nsrv = 3
		// Build memory segments (synthetic addresses) and file regions
		// with equal totals.
		var segs []ib.SGE
		var total int64
		addr := mem.Addr(0x100000)
		for _, l := range segLens {
			n := int64(l)%2000 + 1
			segs = append(segs, ib.SGE{Addr: addr, Len: n})
			addr += mem.Addr(n + 512)
			total += n
		}
		var accs []OffLen
		remaining := total
		off := int64(0)
		for i, l := range accLens {
			n := int64(l)%3000 + 1
			if i == len(accLens)-1 || n > remaining {
				n = remaining
			}
			if n == 0 {
				break
			}
			accs = append(accs, OffLen{Off: off, Len: n})
			off += n + int64(l)%777
			remaining -= n
		}
		if TotalOffLen(accs) != total {
			return true // couldn't build equal totals; skip
		}

		parts, err := splitOp(segs, accs, stripe, nsrv)
		if err != nil {
			return false
		}
		// Reference: walk both streams byte by byte, assigning each byte
		// its (server, local offset) and memory address.
		type byteRef struct {
			addr  mem.Addr
			local int64
		}
		want := make(map[int][]byteRef)
		si, so := 0, int64(0)
		for _, a := range accs {
			for k := int64(0); k < a.Len; k++ {
				srv, local := locate(a.Off+k, stripe, nsrv)
				want[srv] = append(want[srv], byteRef{segs[si].Addr + mem.Addr(so), local})
				so++
				if so == segs[si].Len {
					si, so = si+1, 0
				}
			}
		}
		for _, part := range parts {
			var got []byteRef
			msi, mso := 0, int64(0)
			for _, a := range part.accs {
				for k := int64(0); k < a.Len; k++ {
					got = append(got, byteRef{part.segs[msi].Addr + mem.Addr(mso), a.Off + k})
					mso++
					if mso == part.segs[msi].Len {
						msi, mso = msi+1, 0
					}
				}
			}
			w := want[part.srv]
			if len(got) != len(w) {
				return false
			}
			for i := range w {
				if got[i] != w[i] {
					return false
				}
			}
			delete(want, part.srv)
		}
		return len(want) == 0 // every server with bytes appeared
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyChunkPartPreservesStreams checks chunking against the same
// byte-stream invariant for random parts and limits.
func TestPropertyChunkPartPreservesStreams(t *testing.T) {
	f := func(lens []uint16, maxPairs uint8, maxKB uint8) bool {
		if len(lens) == 0 {
			return true
		}
		if len(lens) > 20 {
			lens = lens[:20]
		}
		part := &serverPart{}
		addr := mem.Addr(0x40000)
		off := int64(0)
		for _, l := range lens {
			n := int64(l)%5000 + 1
			part.accs = append(part.accs, OffLen{Off: off, Len: n})
			part.segs = append(part.segs, ib.SGE{Addr: addr, Len: n})
			off += n + 100
			addr += mem.Addr(n + 64)
		}
		pairs := int(maxPairs)%7 + 1
		maxBytes := int64(maxKB)%8*1024 + 512
		chunks := chunkPart(part, pairs, maxBytes)
		// Invariants: per-chunk limits, aligned totals, and the
		// concatenated (file offset, mem addr) byte streams equal the
		// original.
		var gotFile []OffLen
		var gotMem []ib.SGE
		for _, ch := range chunks {
			if len(ch.accs) > pairs {
				return false
			}
			if ch.total > maxBytes && len(ch.accs) > 1 {
				return false
			}
			if TotalOffLen(ch.accs) != ch.total || ib.TotalLen(ch.segs) != ch.total {
				return false
			}
			gotFile = append(gotFile, ch.accs...)
			gotMem = append(gotMem, ch.segs...)
		}
		return streamsEqual(part.accs, gotFile) && segStreamsEqual(part.segs, gotMem)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// streamsEqual compares two region lists as byte streams (fragmentation may
// differ).
func streamsEqual(a, b []OffLen) bool {
	if TotalOffLen(a) != TotalOffLen(b) {
		return false
	}
	ai, ao := 0, int64(0)
	for _, r := range b {
		for k := int64(0); k < r.Len; k++ {
			if a[ai].Off+ao != r.Off+k {
				return false
			}
			ao++
			if ao == a[ai].Len {
				ai, ao = ai+1, 0
			}
		}
	}
	return true
}

func segStreamsEqual(a, b []ib.SGE) bool {
	if ib.TotalLen(a) != ib.TotalLen(b) {
		return false
	}
	ai, ao := 0, int64(0)
	for _, s := range b {
		for k := int64(0); k < s.Len; k++ {
			if a[ai].Addr+mem.Addr(ao) != s.Addr+mem.Addr(k) {
				return false
			}
			ao++
			if ao == a[ai].Len {
				ai, ao = ai+1, 0
			}
		}
	}
	return true
}

// TestTracingRecordsRequestsAndSieveDecisions: a traced strided write and
// read record every chunk RPC as a pvfs.attempt span and every serviced
// window as a sieve.window span carrying the cost model's verdict, in
// nondecreasing start order.
func TestTracingRecordsRequestsAndSieveDecisions(t *testing.T) {
	c := newCluster(t, 2, 1)
	tr := c.EnableSpans()
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		base := cl.Space().Malloc(1 << 20)
		var segs []ib.SGE
		var accs []OffLen
		for i := 0; i < 64; i++ {
			segs = append(segs, ib.SGE{Addr: base + mem.Addr(i*2048), Len: 512})
			accs = append(accs, OffLen{Off: int64(i * 2048), Len: 512})
			cl.Space().Write(segs[i].Addr, bytes.Repeat([]byte{1}, 512))
		}
		if err := fh.WriteList(p, segs, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := fh.ReadList(p, segs, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	spans := tr.Spans()
	roots := map[trace.ReqID]string{}
	for _, s := range spans {
		if s.Parent == 0 && s.Req != 0 {
			roots[s.Req] = s.Kind
		}
	}
	seen := map[string]int{}
	for i, s := range spans {
		if i > 0 && s.Start < spans[i-1].Start {
			t.Fatalf("span start times regress at %d", i)
		}
		switch s.Kind {
		case "pvfs.attempt":
			if s.Bytes == 0 || !strings.Contains(s.Attrs, "attempt=1 pack=") {
				t.Errorf("attempt span lacks bytes or annotation: %+v", s)
			}
		case "sieve.window":
			if s.Bytes == 0 || !strings.Contains(s.Attrs, "sieve=") {
				t.Errorf("sieve window lacks bytes or verdict: %+v", s)
			}
		default:
			continue
		}
		seen[s.Kind+" under "+roots[s.Req]]++
	}
	for _, want := range []string{
		"pvfs.attempt under pvfs.writelist", "pvfs.attempt under pvfs.readlist",
		"sieve.window under pvfs.writelist", "sieve.window under pvfs.readlist",
	} {
		if seen[want] == 0 {
			t.Errorf("no %s span recorded (seen: %v)", want, seen)
		}
	}
}

func TestRegDeclaredAndExplicit(t *testing.T) {
	c := newCluster(t, 2, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		// Buffers carved from one allocation.
		alloc := cl.Space().Malloc(1 << 20)
		var segs []ib.SGE
		var accs []OffLen
		for i := 0; i < 64; i++ {
			segs = append(segs, ib.SGE{Addr: alloc + mem.Addr(i*16384), Len: 8192})
			accs = append(accs, OffLen{Off: int64(i * 8192), Len: 8192})
			cl.Space().Write(segs[i].Addr, bytes.Repeat([]byte{byte(i)}, 8192))
		}
		// Declared: exactly one registration of the allocation.
		r0 := cl.HCA().Counters.Registrations
		opts := OpOptions{Transfer: ForceGather, Reg: RegDeclared,
			Allocation: mem.Extent{Addr: alloc, Len: 1 << 20}}
		if err := fh.WriteList(p, segs, accs, opts); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations - r0; n != 1 {
			t.Errorf("RegDeclared registered %d, want 1", n)
		}
		// Declared again: cache hit, zero registrations.
		r0 = cl.HCA().Counters.Registrations
		if err := fh.WriteList(p, segs, accs, opts); err != nil {
			t.Fatal(err)
		}
		if n := cl.HCA().Counters.Registrations - r0; n != 0 {
			t.Errorf("second RegDeclared registered %d, want 0 (cache)", n)
		}
		// Declared without an allocation errors.
		if err := fh.WriteList(p, segs, accs, OpOptions{Transfer: ForceGather, Reg: RegDeclared}); err == nil {
			t.Error("RegDeclared without Allocation should fail")
		}
		// Explicit: the application pins once, many ops pay nothing.
		mr, err := cl.RegisterRegion(p, mem.Extent{Addr: alloc, Len: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		r0 = cl.HCA().Counters.Registrations
		for i := 0; i < 3; i++ {
			if err := fh.WriteList(p, segs, accs, OpOptions{Transfer: ForceGather, Reg: RegExplicit}); err != nil {
				t.Fatal(err)
			}
		}
		if n := cl.HCA().Counters.Registrations - r0; n != 0 {
			t.Errorf("RegExplicit registered %d, want 0", n)
		}
		cl.ReleaseRegion(p, mr)
		// Round trip to prove data integrity through the new paths.
		dst := cl.Space().Malloc(64 * 8192)
		if err := fh.ReadList(p, []ib.SGE{{Addr: dst, Len: 64 * 8192}}, accs, OpOptions{}); err != nil {
			t.Fatal(err)
		}
		got, _ := cl.Space().Read(dst, 64*8192)
		for i := 0; i < 64; i++ {
			if got[i*8192] != byte(i) {
				t.Fatalf("piece %d corrupted", i)
			}
		}
	})
}

// TestTortureMixedWorkload drives a long, seeded-random mix of operations
// (contiguous and list writes/reads, syncs, stats, cache drops, removes)
// from two clients against a flat reference model, verifying every read
// and every stat. Deterministic: the RNG is fixed-seed and the engine's
// interleaving is a function of the op sequence alone.
func TestTortureMixedWorkload(t *testing.T) {
	const fileSpan = 1 << 20
	rng := rand.New(rand.NewSource(12345))
	c := newCluster(t, 3, 2)
	model := make([]byte, fileSpan)
	var modelSize int64

	app(t, c, func(p *sim.Proc) {
		handles := []*FileHandle{
			c.Clients[0].Open(p, "torture"),
			c.Clients[1].Open(p, "torture"),
		}
		for op := 0; op < 300; op++ {
			ci := rng.Intn(2)
			cl := c.Clients[ci]
			fh := handles[ci]
			switch rng.Intn(10) {
			case 0, 1, 2: // contiguous write
				n := int64(rng.Intn(32<<10) + 1)
				off := int64(rng.Intn(fileSpan - int(n)))
				data := make([]byte, n)
				rng.Read(data)
				addr := cl.Space().Malloc(n)
				cl.Space().Write(addr, data)
				if err := fh.Write(p, addr, n, off, OpOptions{}); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				copy(model[off:off+n], data)
				if off+n > modelSize {
					modelSize = off + n
				}
			case 3, 4: // list write
				count := rng.Intn(20) + 1
				size := int64(rng.Intn(2000) + 1)
				stride := size + int64(rng.Intn(4000))
				foff := int64(rng.Intn(fileSpan / 2))
				if foff+int64(count)*stride >= fileSpan {
					continue
				}
				base := cl.Space().Malloc(int64(count) * size)
				data := make([]byte, int64(count)*size)
				rng.Read(data)
				cl.Space().Write(base, data)
				var segs []ib.SGE
				var accs []OffLen
				for i := 0; i < count; i++ {
					segs = append(segs, ib.SGE{Addr: base + mem.Addr(int64(i)*size), Len: size})
					off := foff + int64(i)*stride
					accs = append(accs, OffLen{Off: off, Len: size})
					copy(model[off:off+size], data[int64(i)*size:int64(i+1)*size])
					if off+size > modelSize {
						modelSize = off + size
					}
				}
				if err := fh.WriteList(p, segs, accs, OpOptions{}); err != nil {
					t.Fatalf("op %d writelist: %v", op, err)
				}
			case 5, 6, 7: // read + verify
				if modelSize == 0 {
					continue
				}
				n := int64(rng.Intn(32<<10) + 1)
				off := int64(rng.Intn(int(modelSize)))
				if off+n > modelSize {
					n = modelSize - off
				}
				addr := cl.Space().Malloc(n)
				if err := fh.Read(p, addr, n, off, OpOptions{}); err != nil {
					t.Fatalf("op %d read: %v", op, err)
				}
				got, _ := cl.Space().Read(addr, n)
				if !bytes.Equal(got, model[off:off+n]) {
					t.Fatalf("op %d: read mismatch at %d+%d", op, off, n)
				}
			case 8: // sync or drop caches
				if rng.Intn(2) == 0 {
					fh.Sync(p)
				} else {
					for _, s := range c.Servers {
						s.FS().DropCaches(p)
					}
				}
			case 9: // stat
				if got := fh.Stat(p); got != modelSize {
					t.Fatalf("op %d: Stat = %d, want %d", op, got, modelSize)
				}
			}
		}
	})
}
