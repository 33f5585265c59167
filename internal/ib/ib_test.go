package ib

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/sim/simtest"
	"pvfsib/internal/simnet"
	"pvfsib/internal/trace"
)

// A recycled wire record and the staging bytes it carried are overwritten,
// so that a use after release shows as a differing byte.
func init() { sim.PoisonReleased = true }

// pair builds two HCA-equipped nodes on one fabric.
func pair(t *testing.T) (*sim.Engine, *HCA, *HCA) {
	t.Helper()
	return pairWith(DefaultParams())
}

// pairWith is pair with both adapters built from params.
func pairWith(params Params) (*sim.Engine, *HCA, *HCA) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	a := NewHCA(net.AddNode("a"), mem.NewAddrSpace("a"), params)
	b := NewHCA(net.AddNode("b"), mem.NewAddrSpace("b"), params)
	return eng, a, b
}

// run drives the engine; the adapters' responders are daemons, so a
// deadlock is one of the test's own processes.
func run(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterChargesCostModel(t *testing.T) {
	eng, a, _ := pair(t)
	addr := a.Space().Malloc(10 * mem.PageSize)
	var regTime, deregTime sim.Duration
	eng.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		mr, err := a.Register(p, mem.Extent{Addr: addr, Len: 10 * mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		regTime = p.Now().Sub(t0)
		t0 = p.Now()
		a.Deregister(p, mr)
		deregTime = p.Now().Sub(t0)
	})
	run(t, eng)
	// T = 0.77µs * 10 + 7.42µs = 15.12µs
	if want := 15120 * time.Nanosecond; regTime != want {
		t.Errorf("registration of 10 pages took %v, want %v", regTime, want)
	}
	// T = 0.23µs * 10 + 1.1µs = 3.4µs
	if want := 3400 * time.Nanosecond; deregTime != want {
		t.Errorf("deregistration of 10 pages took %v, want %v", deregTime, want)
	}
	if a.Counters.Registrations != 1 || a.Counters.Deregistrations != 1 {
		t.Errorf("counters = %+v", a.Counters)
	}
}

func TestRegisterUnallocatedFails(t *testing.T) {
	eng, a, _ := pair(t)
	addr := a.Space().Malloc(mem.PageSize)
	a.Space().Reserve(2)
	a.Space().Malloc(mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		_, err := a.Register(p, mem.Extent{Addr: addr, Len: 4 * mem.PageSize})
		if err != ErrNotAllocated {
			t.Errorf("err = %v, want ErrNotAllocated", err)
		}
		if p.Now() == 0 {
			t.Error("failed registration must still cost time")
		}
	})
	run(t, eng)
	if a.Counters.RegFailures != 1 {
		t.Errorf("RegFailures = %d, want 1", a.Counters.RegFailures)
	}
}

func TestRegisterPinLimit(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	params := DefaultParams()
	params.MaxPinnedBytes = 4 * mem.PageSize
	a := NewHCA(net.AddNode("a"), mem.NewAddrSpace("a"), params)
	addr := a.Space().Malloc(8 * mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		mr, err := a.Register(p, mem.Extent{Addr: addr, Len: 3 * mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Register(p, mem.Extent{Addr: addr + 4*mem.PageSize, Len: 2 * mem.PageSize}); err != ErrPinLimit {
			t.Errorf("err = %v, want ErrPinLimit", err)
		}
		a.Deregister(p, mr)
		if _, err := a.Register(p, mem.Extent{Addr: addr + 4*mem.PageSize, Len: 2 * mem.PageSize}); err != nil {
			t.Errorf("after dereg, err = %v", err)
		}
	})
	run(t, eng)
}

// wrFailAll is a fault plane that completes every work request in error.
type wrFailAll struct{ quietPlane }

func (wrFailAll) WRError(sim.Time, string) bool { return true }

// TestTracedSpansAllEnd: with a tracer attached, every span the adapter
// opens is ended exactly once on every path — a registration that succeeds
// and one over the pin limit, a deregistration, and RDMA writes and reads
// whose work request completes in error — so none is open when they have
// returned. A second End of one span fails the run (sim.PoisonReleased).
func TestTracedSpansAllEnd(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	params := DefaultParams()
	params.MaxPinnedBytes = 4 * mem.PageSize
	a := NewHCA(net.AddNode("a"), mem.NewAddrSpace("a"), params)
	b := NewHCA(net.AddNode("b"), mem.NewAddrSpace("b"), params)
	tr := trace.NewTracer("a", "b")
	a.SetTracer(tr)
	b.SetTracer(tr)
	qa, _ := Connect(a, b)
	src := a.Space().Malloc(8 * mem.PageSize)
	dst := b.Space().Malloc(mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		mr, err := a.Register(p, mem.Extent{Addr: src, Len: 3 * mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Register(p, mem.Extent{Addr: src + 4*mem.PageSize, Len: 2 * mem.PageSize}); err != ErrPinLimit {
			t.Errorf("err = %v, want ErrPinLimit", err)
		}
		mrB, err := b.Register(p, mem.Extent{Addr: dst, Len: mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		a.SetFaults(wrFailAll{})
		sges := []SGE{{Addr: src, Len: 512}}
		var wc *WCError
		if err := qa.RDMAWrite(p, sges, dst, mrB.Key); !errors.As(err, &wc) || wc.Op != "rdma-write" || !errors.Is(err, ErrWC) {
			t.Errorf("RDMA write under a WR fault returned %v", err)
		}
		qa.Reset(p)
		if err := qa.RDMARead(p, sges, dst, mrB.Key); !errors.As(err, &wc) || wc.Op != "rdma-read" {
			t.Errorf("RDMA read under a WR fault returned %v", err)
		}
		if err := a.Deregister(p, mr); err != nil {
			t.Error(err)
		}
	})
	run(t, eng)
	if tr.Len() == 0 {
		t.Fatal("nothing traced")
	}
	if n := tr.Open(); n != 0 {
		for _, s := range tr.Spans() {
			if !s.Ended {
				t.Errorf("%s span %q on %s never ended", s.Stage, s.Kind, s.Node)
			}
		}
		t.Fatalf("%d spans open", n)
	}
}

func TestSendRecv(t *testing.T) {
	eng, a, b := pair(t)
	qa, qb := Connect(a, b)
	var got string
	eng.Go("recv", func(p *sim.Proc) {
		size, payload := qb.Recv(p)
		if size != 100 {
			t.Errorf("size = %d", size)
		}
		got = payload.(string)
	})
	eng.Go("send", func(p *sim.Proc) {
		qa.Send(p, 100, "request")
	})
	run(t, eng)
	if got != "request" {
		t.Errorf("payload = %q", got)
	}
}

// TestQPSendAllocFree: channel-semantics messages ride pooled wire structs
// from QP.Send through the peer adapter's receive handler to QP.Recv, and a
// steady-state send allocates nothing.
func TestQPSendAllocFree(t *testing.T) {
	eng, a, b := pair(t)
	qa, qb := Connect(a, b)
	var token any = 1
	eng.Go("rx", func(p *sim.Proc) {
		for {
			qb.Recv(p)
		}
	})
	simtest.AllocFree(t, eng, "qp send", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			if err := qa.Send(p, 4096, token); err != nil {
				sim.Failf("ib: qp send: %v", err)
			}
		}
	})
}

func TestRDMAWriteGatherDataIntegrity(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)

	// Three discontiguous client segments gathered into one server buffer.
	src := a.Space().Malloc(8 * mem.PageSize)
	segs := []SGE{
		{Addr: src + 100, Len: 300},
		{Addr: src + 5000, Len: 123},
		{Addr: src + 20000, Len: 777},
	}
	var want []byte
	for i, s := range segs {
		data := bytes.Repeat([]byte{byte('A' + i)}, int(s.Len))
		if err := a.Space().Write(s.Addr, data); err != nil {
			t.Fatal(err)
		}
		want = append(want, data...)
	}
	dst := b.Space().Malloc(mem.PageSize)

	eng.Go("xfer", func(p *sim.Proc) {
		mrA, err := a.Register(p, mem.Extent{Addr: src, Len: 8 * mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		mrB, err := b.Register(p, mem.Extent{Addr: dst, Len: mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		qa.RDMAWrite(p, segs, dst, mrB.Key)
		p.Sleep(time.Millisecond) // let the wire drain
		got, err := b.Space().Read(dst, TotalLen(segs))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("gathered data mismatch at server")
		}
		a.Deregister(p, mrA)
	})
	run(t, eng)
	if a.Counters.RDMAWrites != 1 {
		t.Errorf("RDMAWrites = %d, want 1 (3 SGEs fit one WR)", a.Counters.RDMAWrites)
	}
}

func TestRDMAReadScatterDataIntegrity(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)

	src := b.Space().Malloc(mem.PageSize)
	want := make([]byte, 1200)
	for i := range want {
		want[i] = byte(i * 3)
	}
	if err := b.Space().Write(src, want); err != nil {
		t.Fatal(err)
	}
	dst := a.Space().Malloc(4 * mem.PageSize)
	segs := []SGE{
		{Addr: dst + 64, Len: 400},
		{Addr: dst + 4096, Len: 800},
	}
	eng.Go("xfer", func(p *sim.Proc) {
		mrA, err := a.Register(p, mem.Extent{Addr: dst, Len: 4 * mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		mrB, err := b.Register(p, mem.Extent{Addr: src, Len: mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		qa.RDMARead(p, segs, src, mrB.Key)
		var got []byte
		for _, s := range segs {
			b, err := a.Space().Read(s.Addr, s.Len)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b...)
		}
		if !bytes.Equal(got, want) {
			t.Error("scattered data mismatch at client")
		}
		_ = mrA
	})
	run(t, eng)
}

func TestRDMAWriteLatencyMatchesTable2(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)
	src := a.Space().Malloc(mem.PageSize)
	dst := b.Space().Malloc(mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		mrB, _ := b.Register(p, mem.Extent{Addr: dst, Len: mem.PageSize})
		a.Register(p, mem.Extent{Addr: src, Len: mem.PageSize})
		start := p.Now()
		qa.RDMAWrite(p, []SGE{{Addr: src, Len: 4}}, dst, mrB.Key)
		// Local completion includes the WR overhead; one-way data
		// latency is the wire latency (~6µs, Table 2).
		elapsed := p.Now().Sub(start)
		if elapsed > 10*time.Microsecond {
			t.Errorf("4-byte RDMA write completion %v, want a few µs", elapsed)
		}
	})
	run(t, eng)
}

func TestRDMAReadLatencyMatchesTable2(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)
	src := b.Space().Malloc(mem.PageSize)
	dst := a.Space().Malloc(mem.PageSize)
	var elapsed sim.Duration
	eng.Go("t", func(p *sim.Proc) {
		mrB, _ := b.Register(p, mem.Extent{Addr: src, Len: mem.PageSize})
		a.Register(p, mem.Extent{Addr: dst, Len: mem.PageSize})
		start := p.Now()
		qa.RDMARead(p, []SGE{{Addr: dst, Len: 4}}, src, mrB.Key)
		elapsed = p.Now().Sub(start)
	})
	run(t, eng)
	// Paper: 12.4µs. Two wire latencies plus turnaround ≈ 12.3-13µs.
	if elapsed < 11*time.Microsecond || elapsed > 15*time.Microsecond {
		t.Errorf("4-byte RDMA read latency %v, want ≈12.4µs", elapsed)
	}
}

// splitPair is pair with both adapters' scatter/gather limit at maxSGE.
func splitPair(maxSGE int) (*sim.Engine, *HCA, *HCA) {
	params := DefaultParams()
	params.MaxSGE = maxSGE
	return pairWith(params)
}

// splitSGEs is the list the split tests post: 200 runs of 64 bytes, one
// every 256, more than three work requests' worth at the hardware limit.
const splitSGEs = 200

func splitList(base mem.Addr) []SGE {
	segs := make([]SGE, splitSGEs)
	for i := range segs {
		segs[i] = SGE{Addr: base + mem.Addr(i*256), Len: 64}
	}
	return segs
}

// TestRDMAWriteSplitsAtMaxSGE: a gather list longer than Params.MaxSGE goes
// out as ceil(len/MaxSGE) work requests, at the hardware limit and below it.
func TestRDMAWriteSplitsAtMaxSGE(t *testing.T) {
	for _, maxSGE := range []int{HardMaxSGE, 16} {
		t.Run(fmt.Sprintf("maxsge=%d", maxSGE), func(t *testing.T) {
			eng, a, b := splitPair(maxSGE)
			qa, _ := Connect(a, b)
			src := a.Space().Malloc(splitSGEs * 256)
			dst := b.Space().Malloc(splitSGEs * 64)
			eng.Go("t", func(p *sim.Proc) {
				mrB, _ := b.Register(p, mem.Extent{Addr: dst, Len: splitSGEs * 64})
				a.Register(p, mem.Extent{Addr: src, Len: splitSGEs * 256})
				sim.Must(qa.RDMAWrite(p, splitList(src), dst, mrB.Key))
			})
			run(t, eng)
			if want := int64((splitSGEs + maxSGE - 1) / maxSGE); a.Counters.RDMAWrites != want {
				t.Errorf("RDMAWrites = %d, want %d", a.Counters.RDMAWrites, want)
			}
		})
	}
}

// TestRDMAReadSplitsAtMaxSGE: a scatter list longer than Params.MaxSGE is
// read as ceil(len/MaxSGE) work requests, and every run lands where its
// entry names.
func TestRDMAReadSplitsAtMaxSGE(t *testing.T) {
	for _, maxSGE := range []int{HardMaxSGE, 16} {
		t.Run(fmt.Sprintf("maxsge=%d", maxSGE), func(t *testing.T) {
			eng, a, b := splitPair(maxSGE)
			qa, _ := Connect(a, b)
			src := b.Space().Malloc(splitSGEs * 64)
			want := make([]byte, splitSGEs*64)
			for i := range want {
				want[i] = byte(i * 7)
			}
			sim.Must(b.Space().Write(src, want))
			dst := a.Space().Malloc(splitSGEs * 256)
			segs := splitList(dst)
			eng.Go("t", func(p *sim.Proc) {
				mrB, _ := b.Register(p, mem.Extent{Addr: src, Len: splitSGEs * 64})
				a.Register(p, mem.Extent{Addr: dst, Len: splitSGEs * 256})
				sim.Must(qa.RDMARead(p, segs, src, mrB.Key))
			})
			run(t, eng)
			if want := int64((splitSGEs + maxSGE - 1) / maxSGE); a.Counters.RDMAReads != want {
				t.Errorf("RDMAReads = %d, want %d", a.Counters.RDMAReads, want)
			}
			var got []byte
			for _, s := range segs {
				b, err := a.Space().Read(s.Addr, s.Len)
				sim.Must(err)
				got = append(got, b...)
			}
			if !bytes.Equal(got, want) {
				t.Error("scattered data differs from the source")
			}
		})
	}
}

func TestRDMAWriteUnregisteredLocalFails(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)
	src := a.Space().Malloc(mem.PageSize)
	dst := b.Space().Malloc(mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		mrB, _ := b.Register(p, mem.Extent{Addr: dst, Len: mem.PageSize})
		writes := a.Counters.RDMAWrites
		if err := qa.RDMAWrite(p, []SGE{{Addr: src, Len: 16}}, dst, mrB.Key); err == nil {
			t.Error("expected error for unregistered local segment")
		}
		if a.Counters.RDMAWrites != writes {
			t.Error("failed work request must not be posted")
		}
		if err := qa.RDMARead(p, []SGE{{Addr: src, Len: 16}}, dst, mrB.Key); err == nil {
			t.Error("expected error for unregistered local read segment")
		}
	})
	run(t, eng)
}

// TestLocalSGEStraddlingTwoRegionsFails: two regions register adjacent
// halves of one buffer. An SGE inside either passes the local check — the
// second after the first, so the check tries the region that covered the
// last SGE and falls back to the others — but one straddling the boundary
// is covered by no single region and fails, before and after a covered SGE
// in the same list, and again once a region is deregistered.
func TestLocalSGEStraddlingTwoRegionsFails(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)
	src := a.Space().Malloc(2 * mem.PageSize)
	dst := b.Space().Malloc(2 * mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		mrB, _ := b.Register(p, mem.Extent{Addr: dst, Len: 2 * mem.PageSize})
		lo, err := a.Register(p, mem.Extent{Addr: src, Len: mem.PageSize})
		sim.Must(err)
		hi, err := a.Register(p, mem.Extent{Addr: src + mem.PageSize, Len: mem.PageSize})
		sim.Must(err)
		inLo := SGE{Addr: src + 16, Len: 64}
		inHi := SGE{Addr: src + mem.PageSize + 16, Len: 64}
		across := SGE{Addr: src + mem.PageSize - 32, Len: 64}
		for _, sges := range [][]SGE{{inLo}, {inHi}, {inLo, inHi}, {inHi, inLo}} {
			if err := qa.RDMAWrite(p, sges, dst, mrB.Key); err != nil {
				t.Errorf("%v: %v", sges, err)
			}
		}
		for _, sges := range [][]SGE{{across}, {inLo, across}, {inHi, across}, {across, inHi}} {
			if err := qa.RDMAWrite(p, sges, dst, mrB.Key); err == nil {
				t.Errorf("%v: an SGE across two regions passed", sges)
			}
			if err := qa.RDMARead(p, sges, dst, mrB.Key); err == nil {
				t.Errorf("%v: an SGE across two regions passed a read", sges)
			}
		}
		sim.Must(qa.RDMAWrite(p, []SGE{inHi}, dst, mrB.Key))
		sim.Must(a.Deregister(p, hi))
		if err := qa.RDMAWrite(p, []SGE{inHi}, dst, mrB.Key); err == nil {
			t.Error("an SGE in a deregistered region passed")
		}
		sim.Must(qa.RDMAWrite(p, []SGE{inLo}, dst, mrB.Key))
		sim.Must(a.Deregister(p, lo))
	})
	run(t, eng)
}

func TestRDMAWriteOutsideRemoteRegionPanics(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)
	src := a.Space().Malloc(mem.PageSize)
	dst := b.Space().Malloc(mem.PageSize)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-region remote write")
		}
	}()
	eng.Go("t", func(p *sim.Proc) {
		mrB, _ := b.Register(p, mem.Extent{Addr: dst, Len: 64})
		a.Register(p, mem.Extent{Addr: src, Len: mem.PageSize})
		qa.RDMAWrite(p, []SGE{{Addr: src, Len: 128}}, dst, mrB.Key)
		p.Sleep(time.Millisecond)
	})
	run(t, eng)
}

func TestLargeTransferBandwidth(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)
	const size = 16 * simnet.MB
	src := a.Space().Malloc(size)
	dst := b.Space().Malloc(size)
	var elapsed sim.Duration
	eng.Go("t", func(p *sim.Proc) {
		mrB, _ := b.Register(p, mem.Extent{Addr: dst, Len: size})
		a.Register(p, mem.Extent{Addr: src, Len: size})
		start := p.Now()
		qa.RDMAWrite(p, []SGE{{Addr: src, Len: size}}, dst, mrB.Key)
		elapsed = p.Now().Sub(start)
	})
	run(t, eng)
	bw := float64(size) / elapsed.Seconds() / simnet.MB
	if bw < 800 || bw > 830 {
		t.Errorf("large-write bandwidth = %.0f MB/s, want ≈827", bw)
	}
}

func TestRegCacheHitIsFreeAndCounted(t *testing.T) {
	eng, a, _ := pair(t)
	cache := NewRegCache(a, 64*mem.PageSize, 16)
	addr := a.Space().Malloc(8 * mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		mr1, err := cache.Get(p, mem.Extent{Addr: addr, Len: 8 * mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		cache.Put(p, mr1)
		t0 := p.Now()
		// Covered sub-extent: must hit.
		mr2, err := cache.Get(p, mem.Extent{Addr: addr + 100, Len: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if p.Now() != t0 {
			t.Error("cache hit consumed virtual time")
		}
		if mr2 != mr1 {
			t.Error("hit returned a different MR")
		}
		cache.Put(p, mr2)
	})
	run(t, eng)
	if a.Counters.RegCacheHits != 1 || a.Counters.RegCacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", a.Counters.RegCacheHits, a.Counters.RegCacheMisses)
	}
}

func TestRegCacheEvictsLRU(t *testing.T) {
	eng, a, _ := pair(t)
	cache := NewRegCache(a, 2*mem.PageSize, 100)
	addr1 := a.Space().Malloc(mem.PageSize)
	addr2 := a.Space().Malloc(mem.PageSize)
	addr3 := a.Space().Malloc(mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		m1, _ := cache.Get(p, mem.Extent{Addr: addr1, Len: mem.PageSize})
		cache.Put(p, m1)
		m2, _ := cache.Get(p, mem.Extent{Addr: addr2, Len: mem.PageSize})
		cache.Put(p, m2)
		// Third region exceeds 2-page capacity: addr1 (LRU) must go.
		m3, _ := cache.Get(p, mem.Extent{Addr: addr3, Len: mem.PageSize})
		cache.Put(p, m3)
		if cache.Len() != 2 {
			t.Errorf("cache len = %d, want 2", cache.Len())
		}
		// addr1 must now miss (re-register), addr2 must still hit.
		hits0 := a.Counters.RegCacheHits
		m2b, _ := cache.Get(p, mem.Extent{Addr: addr2, Len: mem.PageSize})
		cache.Put(p, m2b)
		if a.Counters.RegCacheHits != hits0+1 {
			t.Error("addr2 should still be cached")
		}
	})
	run(t, eng)
	if a.Counters.Deregistrations == 0 {
		t.Error("eviction should deregister")
	}
}

func TestRegCacheReferencedEntriesNotEvicted(t *testing.T) {
	eng, a, _ := pair(t)
	cache := NewRegCache(a, mem.PageSize, 100)
	addr1 := a.Space().Malloc(mem.PageSize)
	addr2 := a.Space().Malloc(mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		m1, _ := cache.Get(p, mem.Extent{Addr: addr1, Len: mem.PageSize})
		// m1 still referenced: the next Get cannot evict it, but can
		// still register (HCA limit permits).
		m2, err := cache.Get(p, mem.Extent{Addr: addr2, Len: mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		if !m1.Valid() {
			t.Error("referenced MR was evicted")
		}
		cache.Put(p, m1)
		cache.Put(p, m2)
	})
	run(t, eng)
}

// TestRegCacheChurnAllocFree: a cache whose buffer moves to a new address
// every round — the two-phase exchange buffer of a reopened file — registers
// the new region in the slot and the MR record that evicting the old one
// freed, so a warm round allocates nothing.
func TestRegCacheChurnAllocFree(t *testing.T) {
	eng, a, _ := pair(t)
	const region = 4 * mem.PageSize
	cache := NewRegCache(a, 2*region, 16)
	addrs := [3]mem.Addr{}
	for i := range addrs {
		addrs[i] = a.Space().Malloc(region)
	}
	round := 0
	simtest.AllocFree(t, eng, "regcache churn", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			mr, err := cache.Get(p, mem.Extent{Addr: addrs[round%len(addrs)], Len: region})
			sim.Must(err)
			sim.Must(cache.Put(p, mr))
			round++
		}
	})
	if a.Counters.Deregistrations == 0 || cache.Len() != 2 {
		t.Errorf("%d deregistrations, %d regions cached: the cache did not churn", a.Counters.Deregistrations, cache.Len())
	}
	a.Census(func(pool string, n int64) {
		if pool == "ib.mrs" && n != 0 {
			t.Errorf("%d region records neither registered nor free", n)
		}
	})
}

// TestDeregisteredMRIsRecycledUnderANewKey: Register hands out a
// deregistered region's record again, under a key no region has had, so a
// peer's stale rkey names nothing; released, the record reads invalid.
func TestDeregisteredMRIsRecycledUnderANewKey(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)
	src := a.Space().Malloc(mem.PageSize)
	dst := b.Space().Malloc(mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		a.Register(p, mem.Extent{Addr: src, Len: mem.PageSize})
		old, err := b.Register(p, mem.Extent{Addr: dst, Len: mem.PageSize})
		sim.Must(err)
		stale := old.Key
		sim.Must(b.Deregister(p, old))
		if old.Valid() || old.Covers(mem.Extent{Addr: dst, Len: 1}) {
			t.Error("a released MR still reads as a region")
		}
		mr, err := b.Register(p, mem.Extent{Addr: dst, Len: mem.PageSize})
		sim.Must(err)
		if mr != old {
			t.Error("Register did not reuse the released record")
		}
		if mr.Key == stale {
			t.Fatalf("the recycled record kept its old key %d", stale)
		}
		if err := b.checkRemote(stale, mem.Extent{Addr: dst, Len: 64}); err == nil {
			t.Error("a stale rkey names the recycled region")
		}
		sim.Must(qa.RDMAWrite(p, []SGE{{Addr: src, Len: 64}}, dst, mr.Key))
	})
	run(t, eng)
}

func TestBufPoolBlocksWhenEmpty(t *testing.T) {
	eng, a, _ := pair(t)
	var pool *BufPool
	var gotAt sim.Time
	eng.Go("setup", func(p *sim.Proc) {
		var err error
		pool, err = NewBufPool(a, 1, 64<<10, new(mem.ScratchPool))
		if err != nil {
			t.Error(err)
			return
		}
		b1 := pool.Get(p)
		eng.Go("waiter", func(q *sim.Proc) {
			b2 := pool.Get(q)
			gotAt = q.Now()
			b2.Put()
		})
		p.Sleep(50 * time.Microsecond)
		b1.Put()
	})
	run(t, eng)
	if gotAt < sim.Time(50*time.Microsecond) {
		t.Errorf("second Get returned at %v, want after the Put at 50µs", gotAt)
	}
}

func TestBufPoolPreRegistered(t *testing.T) {
	eng, a, _ := pair(t)
	eng.Go("t", func(p *sim.Proc) {
		pool, err := NewBufPool(a, 4, 64<<10, new(mem.ScratchPool))
		if err != nil {
			t.Error(err)
			return
		}
		regs := a.Counters.Registrations
		b := pool.Get(p)
		b.Put()
		if a.Counters.Registrations != regs {
			t.Error("Get/Put must not register")
		}
		if !b.MR.Valid() {
			t.Error("pool buffer must stay registered")
		}
		if sge, err := b.SGE(100); err != nil || sge.Len != 100 {
			t.Errorf("SGE helper: sge=%v err=%v", sge, err)
		}
	})
	run(t, eng)
}

func TestUnalignedSegmentsCostMore(t *testing.T) {
	eng, a, b := pair(t)
	qa, _ := Connect(a, b)
	src := a.Space().Malloc(4 * mem.PageSize)
	dst := b.Space().Malloc(mem.PageSize)
	var tAligned, tUnaligned sim.Duration
	eng.Go("t", func(p *sim.Proc) {
		mrB, _ := b.Register(p, mem.Extent{Addr: dst, Len: mem.PageSize})
		a.Register(p, mem.Extent{Addr: src, Len: 4 * mem.PageSize})
		t0 := p.Now()
		qa.RDMAWrite(p, []SGE{{Addr: src, Len: 128}}, dst, mrB.Key)
		tAligned = p.Now().Sub(t0)
		t0 = p.Now()
		qa.RDMAWrite(p, []SGE{{Addr: src + 7, Len: 128}}, dst, mrB.Key)
		tUnaligned = p.Now().Sub(t0)
	})
	run(t, eng)
	if tUnaligned <= tAligned {
		t.Errorf("unaligned (%v) should cost more than aligned (%v)", tUnaligned, tAligned)
	}
}

func TestCountersAdd(t *testing.T) {
	var c, d Counters
	c.Registrations, c.BytesOut = 2, 100
	d.Registrations, d.BytesOut = 3, 50
	c.Add(d)
	if c.Registrations != 5 || c.BytesOut != 150 {
		t.Errorf("Add: %+v", c)
	}
}

// quietPlane is a fault plane that injects nothing: attached, it only turns
// the leftovers of a failed epoch from broken invariants into drops.
type quietPlane struct{}

func (quietPlane) WRError(sim.Time, string) bool { return false }
func (quietPlane) RegFail(sim.Time, string) bool { return false }

// slowReturn is a fabric fault policy that holds every message one node
// sends for extra before it leaves: a read response it serves arrives that
// much later.
type slowReturn struct {
	from  simnet.NodeID
	extra sim.Duration
}

func (s slowReturn) SendVerdict(_ sim.Time, from, _ int, _ int) (bool, sim.Duration) {
	if from == int(s.from) {
		return false, s.extra
	}
	return false, 0
}

// TestReleasedStagingBufferDropsStaleRDMA: a staging buffer holds storage
// only while it is lent, and each lend fences off the keys of the ones
// before, so an RDMA write or read that reaches a buffer with the key of an
// earlier lend touches no byte — whether the buffer went back to its pool
// (released), was lent again before the access arrived (re-lent), or, for a
// read, was lent again after the read was served and before its response
// arrived (re-lent in flight). With a fault plane attached that is a stale
// access from a failed epoch and is dropped: the write lands nowhere, the
// read gets no response and times out. Without one it is a broken invariant
// and fails the run.
func TestReleasedStagingBufferDropsStaleRDMA(t *testing.T) {
	cases := []struct{ name, op string }{
		{"released", "write"}, {"released", "read"},
		{"re-lent", "write"}, {"re-lent", "read"},
		{"re-lent in flight", "read"},
	}
	for _, faulty := range []bool{true, false} {
		for _, tc := range cases {
			name := fmt.Sprintf("faults=%t/%s/%s", faulty, tc.name, tc.op)
			if tc.name == "released" {
				name = fmt.Sprintf("faults=%t/%s", faulty, tc.op)
			}
			t.Run(name, func(t *testing.T) {
				eng, a, b := pair(t)
				qa, _ := Connect(a, b)
				if faulty {
					a.SetFaults(quietPlane{})
					b.SetFaults(quietPlane{})
				}
				store := new(mem.ScratchPool)
				pool, err := NewBufPool(b, 1, 64<<10, store)
				if err != nil {
					t.Fatal(err)
				}
				src := a.Space().Malloc(mem.PageSize)
				if _, err := a.RegisterStatic(mem.Extent{Addr: src, Len: mem.PageSize}); err != nil {
					t.Fatal(err)
				}
				if err := a.Space().Write(src, bytes.Repeat([]byte{0x5A}, mem.PageSize)); err != nil {
					t.Fatal(err)
				}
				// relent is what the buffer's second lend holds.
				relent := bytes.Repeat([]byte{0xC3}, 512)
				var opErr error
				var buf *Buffer
				lend := func(p *sim.Proc, data []byte) {
					buf = pool.Get(p)
					b.Space().Exchange(buf.Addr, store.Get(len(data)))
					if err := b.Space().Write(buf.Addr, data); err != nil {
						t.Error(err)
					}
				}
				eng.Go("t", func(p *sim.Proc) {
					lend(p, make([]byte, 512))
					key := buf.Key()
					switch tc.name {
					case "released":
						buf.Put()
					case "re-lent":
						buf.Put()
						lend(p, relent)
					case "re-lent in flight":
						// The read reaches b after about 7 µs and is served;
						// its response leaves 50 µs later. In between the
						// buffer goes back and is lent again.
						b.Node().Network().SetFaults(slowReturn{from: b.NodeID(), extra: 50 * time.Microsecond})
						eng.Go("re-lend", func(q *sim.Proc) {
							q.Sleep(20 * time.Microsecond)
							buf.Put()
							lend(q, relent)
						})
					}
					sges := []SGE{{Addr: src, Len: 512}}
					if tc.op == "write" {
						opErr = qa.RDMAWrite(p, sges, buf.Addr, key)
					} else {
						opErr = qa.RDMARead(p, sges, buf.Addr, key)
					}
					p.Sleep(time.Millisecond)
				})
				panicked := func() (r any) {
					defer func() { r = recover() }()
					run(t, eng)
					return nil
				}()
				if !faulty {
					if msg := fmt.Sprint(panicked); !strings.Contains(msg, "RDMA "+tc.op+" fault") {
						t.Fatalf("stale RDMA %s into a %s buffer: run ended with %q, want a fault", tc.op, tc.name, msg)
					}
					return
				}
				if panicked != nil {
					t.Fatalf("stale RDMA %s under faults: %v", tc.op, panicked)
				}
				var wc *WCError
				if tc.op == "write" && opErr != nil || tc.op == "read" && !(errors.As(opErr, &wc) && wc.Status == WCResponseTimeout) {
					t.Errorf("RDMA %s returned %v", tc.op, opErr)
				}
				if tc.name == "released" {
					if err := b.Space().ReadInto(buf.Addr, make([]byte, 1)); err == nil {
						t.Error("the released buffer is backed")
					}
				} else if got, err := b.Space().Read(buf.Addr, 512); err != nil || !bytes.Equal(got, relent) {
					t.Errorf("the re-lent buffer lost its bytes (%v)", err)
				}
				if got, _ := a.Space().Read(src, 512); tc.op == "read" && !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, 512)) {
					t.Error("a fenced read landed bytes")
				}
				if n := b.wp.wires.Out(); n != 0 {
					t.Errorf("%d wire records not recycled", n)
				}
				// A recycled pvfs record's key is poisoned to ^Key(0); with
				// its generation masked off it still names no region.
				if mr := b.lookup(^Key(0)); mr != nil {
					t.Errorf("the poisoned key resolves to %v", mr)
				}
			})
		}
	}
}
