package pcache

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// testCfg keeps cache geometry small so eviction and high-water paths are
// exercised by modest workloads.
func testCfg() Config {
	return Config{PageSize: 8 << 10, Pages: 16, DirtyHighWater: 8, ReadAhead: 4}
}

func newCluster(t *testing.T, nServers, nClients int) *pvfs.Cluster {
	t.Helper()
	return pvfs.NewCluster(sim.NewEngine(), pvfs.DefaultConfig(), nServers, nClients)
}

// app runs fn as an application process and drives the simulation.
func app(t *testing.T, c *pvfs.Cluster, fn func(p *sim.Proc)) {
	t.Helper()
	c.Eng.Go("app", fn)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// fill allocates a client buffer holding a deterministic pattern.
func fill(cl *pvfs.Client, n int64, seed byte) (mem.Addr, []byte) {
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

// readBack reads [off, off+n) through the cache and returns the bytes.
func readBack(t *testing.T, p *sim.Proc, f *File, n, off int64) []byte {
	t.Helper()
	cl := f.Handle().Client()
	addr := cl.Space().Malloc(n)
	if err := f.Read(p, addr, n, off); err != nil {
		t.Fatalf("cached read: %v", err)
	}
	got, err := cl.Space().Read(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRoundTripAndDurability writes a strided pattern through the cache,
// reads it back cached (hits), syncs, and verifies the bytes landed on the
// servers by reading uncached from a second client.
func TestRoundTripAndDurability(t *testing.T) {
	c := newCluster(t, 4, 2)
	const segLen, nSegs, stride = 1024, 32, 4096
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		fh := cl.Open(p, "rt")
		f := New(fh, testCfg())
		addr, want := fill(cl, segLen*nSegs, 3)
		for i := int64(0); i < nSegs; i++ {
			if err := f.Write(p, addr+mem.Addr(i*segLen), segLen, i*stride); err != nil {
				t.Fatalf("cached write: %v", err)
			}
		}
		// Cached read-back sees write-behind data before any flush.
		for i := int64(0); i < nSegs; i++ {
			got := readBack(t, p, f, segLen, i*stride)
			if !bytes.Equal(got, want[i*segLen:(i+1)*segLen]) {
				t.Fatalf("cached read seg %d mismatch", i)
			}
		}
		if err := f.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Uncached read from another client must see the synced bytes.
		cl2 := c.Clients[1]
		fh2 := cl2.Open(p, "rt")
		raddr := cl2.Space().Malloc(segLen)
		for i := int64(0); i < nSegs; i++ {
			if err := fh2.Read(p, raddr, segLen, i*stride, pvfs.OpOptions{}); err != nil {
				t.Fatal(err)
			}
			got, err := cl2.Space().Read(raddr, segLen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i*segLen:(i+1)*segLen]) {
				t.Fatalf("uncached read seg %d mismatch after sync", i)
			}
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	a := c.Acct()
	if a.CacheHits == 0 {
		t.Errorf("no cache hits recorded")
	}
	if a.WriteBehindBytes == 0 {
		t.Errorf("no write-behind bytes recorded")
	}
	if a.LeaseGrants == 0 {
		t.Errorf("no lease grants recorded")
	}
}

// TestWriteBehindCoalesces checks the heart of the tentpole: many small
// strided writes produce far fewer server write requests than uncached
// one-request-per-segment traffic, via coalesced flushes.
func TestWriteBehindCoalesces(t *testing.T) {
	c := newCluster(t, 4, 2)
	const segLen, nSegs, stride = 512, 64, 2048
	var cachedWrites, uncachedWrites int64
	app(t, c, func(p *sim.Proc) {
		// Uncached baseline: one WriteList per segment.
		cl := c.Clients[1]
		fh := cl.Open(p, "base")
		addr, _ := fill(cl, segLen*nSegs, 9)
		before := c.Acct().WriteReqs
		for i := int64(0); i < nSegs; i++ {
			if err := fh.Write(p, addr+mem.Addr(i*segLen), segLen, i*stride, pvfs.OpOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		uncachedWrites = c.Acct().WriteReqs - before

		// Cached: same pattern through write-behind.
		cl0 := c.Clients[0]
		fh0 := cl0.Open(p, "wb")
		f := New(fh0, testCfg())
		addr0, _ := fill(cl0, segLen*nSegs, 9)
		before = c.Acct().WriteReqs
		for i := int64(0); i < nSegs; i++ {
			if err := f.Write(p, addr0+mem.Addr(i*segLen), segLen, i*stride); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Flush(p); err != nil {
			t.Fatal(err)
		}
		cachedWrites = c.Acct().WriteReqs - before
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	if cachedWrites*4 > uncachedWrites {
		t.Errorf("write-behind sent %d write requests, uncached sent %d; want at least 4x reduction",
			cachedWrites, uncachedWrites)
	}
	if c.Acct().CoalescedFlushes == 0 {
		t.Errorf("no coalesced flushes recorded")
	}
}

// TestReadAhead streams a strided read pattern and expects the detector to
// prefetch: later segments hit without their own fill.
func TestReadAhead(t *testing.T) {
	c := newCluster(t, 4, 1)
	cfg := testCfg()
	const nPages = 12
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		fh := cl.Open(p, "ra")
		// Materialize 2 pages of stride: pages 0,2,4,... up to nPages*2.
		total := int64(nPages*2+1) * cfg.PageSize
		addr, _ := fill(cl, total, 5)
		if err := fh.Write(p, addr, total, 0, pvfs.OpOptions{}); err != nil {
			t.Fatal(err)
		}
		f := New(fh, cfg)
		buf := cl.Space().Malloc(cfg.PageSize)
		for i := int64(0); i < nPages; i++ {
			if err := f.Read(p, buf, cfg.PageSize, i*2*cfg.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	if c.Acct().CacheReadAheads == 0 {
		t.Errorf("stride pattern triggered no read-ahead")
	}
	// Prefetched pages must convert later accesses into hits: misses plus
	// prefetches should not exceed the touched page count, and hits prove
	// prefetched pages were consumed.
	if c.Acct().CacheMisses+c.Acct().CacheReadAheads > int64(nPages+testCfg().ReadAhead) {
		t.Errorf("misses=%d ra=%d exceed touched pages", c.Acct().CacheMisses, c.Acct().CacheReadAheads)
	}
	if c.Acct().CacheHits == 0 {
		t.Errorf("no hits from prefetched pages")
	}
}

// TestEvictionCorrectness pushes a working set larger than the cache
// through it and verifies every byte survives eviction and re-fill.
func TestEvictionCorrectness(t *testing.T) {
	c := newCluster(t, 2, 1)
	cfg := Config{PageSize: 4 << 10, Pages: 4, DirtyHighWater: 2, ReadAhead: 2}
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		fh := cl.Open(p, "evict")
		f := New(fh, cfg)
		const nPages = 12 // 3x the cache
		total := int64(nPages) * cfg.PageSize
		addr, want := fill(cl, total, 11)
		for i := int64(0); i < nPages; i++ {
			if err := f.Write(p, addr+mem.Addr(i*cfg.PageSize), cfg.PageSize, i*cfg.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		got := readBack(t, p, f, total, 0)
		if !bytes.Equal(got, want) {
			t.Fatal("read-back mismatch across evictions")
		}
		if pages, _ := f.Resident(); pages > cfg.Pages {
			t.Fatalf("resident pages %d exceed capacity %d", pages, cfg.Pages)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPartialPageWriteFills checks the every-resident-page-is-valid
// invariant: a small write into an absent page fills the page first, so a
// later full-page read returns the fill plus the overlay.
func TestPartialPageWriteFills(t *testing.T) {
	c := newCluster(t, 2, 1)
	cfg := testCfg()
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		fh := cl.Open(p, "partial")
		// Seed one full page uncached.
		base, want := fill(cl, cfg.PageSize, 21)
		if err := fh.Write(p, base, cfg.PageSize, 0, pvfs.OpOptions{}); err != nil {
			t.Fatal(err)
		}
		f := New(fh, cfg)
		// Overlay 100 bytes at offset 1000 through the cache.
		oaddr, overlay := fill(cl, 100, 77)
		if err := f.Write(p, oaddr, 100, 1000); err != nil {
			t.Fatal(err)
		}
		copy(want[1000:1100], overlay)
		got := readBack(t, p, f, cfg.PageSize, 0)
		if !bytes.Equal(got, want) {
			t.Fatal("partial write did not preserve surrounding page bytes")
		}
		// After flush the servers hold the merged page too.
		if err := f.Sync(p); err != nil {
			t.Fatal(err)
		}
		raddr := cl.Space().Malloc(cfg.PageSize)
		if err := fh.Read(p, raddr, cfg.PageSize, 0, pvfs.OpOptions{}); err != nil {
			t.Fatal(err)
		}
		sgot, err := cl.Space().Read(raddr, cfg.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sgot, want) {
			t.Fatal("flushed page differs from cached view")
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStatMatchesUncached verifies flush-before-stat: the cached Stat
// reports the same logical EOF the uncached path would.
func TestStatMatchesUncached(t *testing.T) {
	c := newCluster(t, 4, 1)
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		fh := cl.Open(p, "stat")
		f := New(fh, testCfg())
		addr, _ := fill(cl, 100, 1)
		const off = 123456
		if err := f.Write(p, addr, 100, off); err != nil {
			t.Fatal(err)
		}
		size, err := f.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := fh.Stat(p); size != want || size < off+100 {
			t.Fatalf("cached Stat=%d uncached=%d want >= %d", size, want, off+100)
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBigOpBypass routes an operation larger than half the arena around
// the cache and keeps resident pages coherent with it.
func TestBigOpBypass(t *testing.T) {
	c := newCluster(t, 2, 1)
	cfg := Config{PageSize: 4 << 10, Pages: 8, DirtyHighWater: 4}
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		fh := cl.Open(p, "big")
		f := New(fh, cfg)
		// Prime page 0 through the cache.
		a0, _ := fill(cl, cfg.PageSize, 1)
		if err := f.Write(p, a0, cfg.PageSize, 0); err != nil {
			t.Fatal(err)
		}
		// Bypass write covering pages 0..15 (64 KiB > arena/2 = 16 KiB).
		total := 16 * cfg.PageSize
		addr, want := fill(cl, total, 42)
		if err := f.Write(p, addr, total, 0); err != nil {
			t.Fatal(err)
		}
		// The cached view must reflect the bypass write, not the stale page.
		got := readBack(t, p, f, cfg.PageSize, 0)
		if !bytes.Equal(got, want[:cfg.PageSize]) {
			t.Fatal("stale resident page survived a bypassing write")
		}
		// And a bypass read sees dirty data flushed first.
		b0, fresh := fill(cl, 64, 9)
		if err := f.Write(p, b0, 64, 0); err != nil {
			t.Fatal(err)
		}
		raddr := cl.Space().Malloc(total)
		if err := f.Read(p, raddr, total, 0); err != nil {
			t.Fatal(err)
		}
		head, err := cl.Space().Read(raddr, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(head, fresh) {
			t.Fatal("bypass read missed unflushed dirty bytes")
		}
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteThroughAblation: write-through mode must send one server write
// per operation while write-behind batches them.
func TestWriteThroughAblation(t *testing.T) {
	c := newCluster(t, 2, 2)
	const segLen, nSegs = 512, 32
	var wt, wb int64
	app(t, c, func(p *sim.Proc) {
		run := func(cl *pvfs.Client, name string, through bool) int64 {
			cfg := testCfg()
			cfg.WriteThrough = through
			fh := cl.Open(p, name)
			f := New(fh, cfg)
			addr, _ := fill(cl, segLen*nSegs, 2)
			before := c.Acct().WriteReqs
			for i := int64(0); i < nSegs; i++ {
				if err := f.Write(p, addr+mem.Addr(i*segLen), segLen, i*2048); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Flush(p); err != nil {
				t.Fatal(err)
			}
			n := c.Acct().WriteReqs - before
			if err := f.Close(p); err != nil {
				t.Fatal(err)
			}
			return n
		}
		wt = run(c.Clients[0], "wt", true)
		wb = run(c.Clients[1], "wb", false)
	})
	if wb >= wt {
		t.Errorf("write-behind wrote %d requests, write-through %d; want fewer", wb, wt)
	}
}

// TestLeaseCoherence is the two-client conflict: A writes through its cache
// (dirty, unflushed), then B reads through its own cache. B's lease
// acquisition must recall A — flushing A's dirty pages — so B reads fresh
// bytes, never stale ones.
func TestLeaseCoherence(t *testing.T) {
	c := newCluster(t, 4, 2)
	const n = 32 << 10
	app(t, c, func(p *sim.Proc) {
		clA, clB := c.Clients[0], c.Clients[1]
		fhA := clA.Open(p, "shared")
		fA := New(fhA, testCfg())
		addr, want := fill(clA, n, 55)
		if err := fA.Write(p, addr, n, 0); err != nil {
			t.Fatal(err)
		}
		if _, dirty := fA.Resident(); dirty == 0 {
			t.Fatal("setup: expected unflushed dirty pages on A")
		}
		fhB := clB.Open(p, "shared")
		fB := New(fhB, testCfg())
		got := readBack(t, p, fB, n, 0)
		if !bytes.Equal(got, want) {
			t.Fatal("B read stale bytes: recall did not flush A")
		}
		// A's cache must have been invalidated by the recall.
		if pages, dirty := fA.Resident(); pages != 0 || dirty != 0 {
			t.Fatalf("A still holds %d pages (%d dirty) after recall", pages, dirty)
		}
		// Now A writes again: its write lease recalls B's read lease.
		addr2, want2 := fill(clA, n, 99)
		if err := fA.Write(p, addr2, n, 0); err != nil {
			t.Fatal(err)
		}
		if pages, _ := fB.Resident(); pages != 0 {
			t.Fatalf("B still holds %d pages after write-lease recall", pages)
		}
		if err := fA.Sync(p); err != nil {
			t.Fatal(err)
		}
		got2 := readBack(t, p, fB, n, 0)
		if !bytes.Equal(got2, want2) {
			t.Fatal("B read stale bytes after A's second write")
		}
		if err := fA.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := fB.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	if c.Acct().LeaseRecalls < 2 {
		t.Errorf("LeaseRecalls = %d, want >= 2", c.Acct().LeaseRecalls)
	}
	readers, writer := c.Manager.LeaseHolders(0)
	if len(readers) != 0 || writer != -1 {
		t.Errorf("leases leaked after Close: readers=%v writer=%d", readers, writer)
	}
}

// TestHitDoesNotWaitOutLeaseRoundTrip: a process whose access needs a lease
// the cache does not hold takes the manager round trip with the cache mutex
// released, so another process's hit on the same cached file completes as
// fast as a lone hit instead of waiting the round trip out.
func TestHitDoesNotWaitOutLeaseRoundTrip(t *testing.T) {
	const page = 8 << 10
	c := newCluster(t, 2, 1)
	cl := c.Clients[0]
	var f *File
	var buf mem.Addr
	var lone sim.Duration
	app(t, c, func(p *sim.Proc) {
		f = New(cl.Open(p, "shared"), testCfg())
		buf = cl.Space().Malloc(4 * page)
		// A read lease and four resident pages, then one lone hit.
		if err := f.Read(p, buf, 4*page, 0); err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		if err := f.Read(p, buf, 2<<10, 0); err != nil {
			t.Fatal(err)
		}
		lone = p.Now().Sub(t0)
	})
	// At one instant: a writer that must upgrade to a write lease, and a
	// reader whose access the read lease covers.
	var hit sim.Duration
	var hitDone, writeDone sim.Time
	c.Eng.Go("writer", func(p *sim.Proc) {
		if err := f.Write(p, buf, 2<<10, page); err != nil {
			t.Error(err)
		}
		writeDone = p.Now()
	})
	c.Eng.Go("reader", func(p *sim.Proc) {
		t0 := p.Now()
		if err := f.Read(p, buf+2*page, 2<<10, 0); err != nil {
			t.Error(err)
		}
		hitDone = p.Now()
		hit = hitDone.Sub(t0)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if hit != lone || hitDone >= writeDone {
		t.Errorf("a hit beside a lease upgrade took %v (done at %v, the upgrading write at %v); a lone hit takes %v",
			hit, hitDone, writeDone, lone)
	}
}

// coherenceStorm runs the conflicting-lease workload under an iod
// crash/restart plan and returns the final (snapshot, virtual time) pair
// for determinism comparison.
func coherenceStorm(t *testing.T, seed int64) (string, sim.Time) {
	t.Helper()
	cfg := pvfs.DefaultConfig()
	cfg.Faults = &fault.Plan{
		Seed:        seed,
		WRErrorRate: 0.02,
		Crashes: []fault.Crash{
			{Server: 1, At: 50 * time.Microsecond, Down: 400 * time.Microsecond},
		},
	}
	c := pvfs.NewCluster(sim.NewEngine(), cfg, 4, 2)
	const n = 48 << 10
	app(t, c, func(p *sim.Proc) {
		clA, clB := c.Clients[0], c.Clients[1]
		fA := New(clA.Open(p, "storm"), testCfg())
		fB := New(clB.Open(p, "storm"), testCfg())
		for round := 0; round < 3; round++ {
			addr, want := fill(clA, n, byte(60+round))
			if err := fA.Write(p, addr, n, 0); err != nil {
				t.Fatal(err)
			}
			got := readBack(t, p, fB, n, 0)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: stale read under faults", round)
			}
		}
		if err := fA.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := fB.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	if c.Acct().Crashes == 0 || c.Acct().Restarts == 0 {
		t.Fatalf("fault plan did not execute: crashes=%d restarts=%d", c.Acct().Crashes, c.Acct().Restarts)
	}
	if c.Acct().LeaseRecalls == 0 {
		t.Fatal("no lease recalls under the storm")
	}
	return fmt.Sprintf("%+v", c.Snapshot()), c.Eng.Now()
}

// TestCoherenceSurvivesIodCrash: conflicting leases under an iod
// crash/restart produce no stale reads, and the whole run replays
// byte-identically at a fixed seed.
func TestCoherenceSurvivesIodCrash(t *testing.T) {
	snap1, t1 := coherenceStorm(t, 1234)
	snap2, t2 := coherenceStorm(t, 1234)
	if snap1 != snap2 || t1 != t2 {
		t.Fatalf("replay diverged:\n run1 t=%v %s\n run2 t=%v %s", t1, snap1, t2, snap2)
	}
}

// TestStrideDetector pins the detector's contract directly.
func TestStrideDetector(t *testing.T) {
	var d Detector
	if _, ok := d.Stride(); ok {
		t.Fatal("empty detector claims a stride")
	}
	for _, pno := range []int64{10, 13, 16, 19} {
		d.Observe(pno)
	}
	if s, ok := d.Stride(); !ok || s != 3 {
		t.Fatalf("Stride() = (%d, %v), want (3, true)", s, ok)
	}
	// Repeats do not break the streak.
	d.Observe(19)
	if s, ok := d.Stride(); !ok || s != 3 {
		t.Fatalf("after repeat: Stride() = (%d, %v), want (3, true)", s, ok)
	}
	// A break resets confidence.
	d.Observe(100)
	if _, ok := d.Stride(); ok {
		t.Fatal("one irregular delta should drop confidence")
	}
	// Negative strides (backward scans) are detected too.
	d.Reset()
	for _, pno := range []int64{50, 45, 40} {
		d.Observe(pno)
	}
	if s, ok := d.Stride(); !ok || s != -5 {
		t.Fatalf("backward: Stride() = (%d, %v), want (-5, true)", s, ok)
	}
}

// TestPieceWalker checks fragment iteration against a hand-built case.
func TestPieceWalker(t *testing.T) {
	segs := []ib.SGE{{Addr: 0x1000, Len: 300}, {Addr: 0x9000, Len: 100}}
	accs := []pvfs.OffLen{{Off: 1000, Len: 150}, {Off: 4000, Len: 250}}
	w := pieceWalker{segs: segs, accs: accs, pageSize: 4096}
	type frag struct {
		off  int64
		addr mem.Addr
		n    int64
	}
	var got []frag
	for {
		off, addr, n, ok := w.next()
		if !ok {
			break
		}
		got = append(got, frag{off, addr, n})
	}
	want := []frag{
		{1000, 0x1000, 150},
		{4000, 0x1000 + 150, 96}, // split at page boundary 4096
		{4096, 0x1000 + 246, 54}, // rest of seg 0
		{4150, 0x9000, 100},      // seg 1
	}
	if len(got) != len(want) {
		t.Fatalf("got %d fragments %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frag %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
