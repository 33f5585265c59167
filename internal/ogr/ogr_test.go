package ogr

import (
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

func newHCA(t *testing.T) (*sim.Engine, *ib.HCA) {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	h := ib.NewHCA(net.AddNode("n"), mem.NewAddrSpace("n"), ib.DefaultParams())
	return eng, h
}

func run(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// rowBuffers carves nrows buffers of rowLen bytes with the given stride out
// of one allocation, the subarray-of-a-2D-array pattern.
func rowBuffers(space *mem.AddrSpace, nrows int, rowLen, stride int64) []mem.Extent {
	base := space.Malloc(int64(nrows) * stride)
	bufs := make([]mem.Extent, nrows)
	for i := range bufs {
		bufs[i] = mem.Extent{Addr: base + mem.Addr(int64(i)*stride), Len: rowLen}
	}
	return bufs
}

func TestSingleAllocationRegistersOnce(t *testing.T) {
	eng, h := newHCA(t)
	bufs := rowBuffers(h.Space(), 1024, 4096, 8192)
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Registrations != 1 {
			t.Errorf("Registrations = %d, want 1", res.Registrations)
		}
		if res.Queried || res.FailedAttempts != 0 {
			t.Errorf("unexpected fallback: %+v", res)
		}
		for _, b := range bufs {
			if !res.MRs[0].Covers(b) {
				t.Fatalf("buffer %v not covered", b)
			}
		}
		Release(p, Direct{h}, res)
	})
	run(t, eng)
	if h.NumMRs() != 0 {
		t.Errorf("NumMRs = %d after release, want 0", h.NumMRs())
	}
}

func TestLargeHolesSplitGroups(t *testing.T) {
	eng, h := newHCA(t)
	// Two arrays separated by a large *allocated* gap: grouping should
	// still split because registering the gap pages costs more than a
	// second registration op.
	a1 := rowBuffers(h.Space(), 4, 4096, 4096)
	h.Space().Malloc(100 * mem.PageSize) // big allocated spacer
	a2 := rowBuffers(h.Space(), 4, 4096, 4096)
	bufs := append(append([]mem.Extent{}, a1...), a2...)
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Registrations != 2 {
			t.Errorf("Registrations = %d, want 2 (one per array)", res.Registrations)
		}
		Release(p, Direct{h}, res)
	})
	run(t, eng)
}

func TestSmallHolesAreSwallowed(t *testing.T) {
	eng, h := newHCA(t)
	// Default model: merging is worth up to (7.42+1.1)/(0.77+0.23) = 8
	// hole pages. Rows with a 2-page gap between them must merge.
	bufs := rowBuffers(h.Space(), 16, 4096, 3*mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Registrations != 1 {
			t.Errorf("Registrations = %d, want 1", res.Registrations)
		}
		Release(p, Direct{h}, res)
	})
	run(t, eng)
}

func TestUnallocatedHoleTriggersQueryFallback(t *testing.T) {
	eng, h := newHCA(t)
	s := h.Space()
	// Many buffers from several arrays with unallocated holes between
	// them — the "OGR+Q" case of Table 4.
	var bufs []mem.Extent
	const arrays = 11 // 10 holes
	for i := 0; i < arrays; i++ {
		if i > 0 {
			s.Reserve(2) // unallocated hole, small enough to try merging
		}
		base := s.Malloc(32 * mem.PageSize)
		for j := 0; j < 93; j++ { // 11*93 = 1023 buffers > SmallGroupLimit
			bufs = append(bufs, mem.Extent{Addr: base + mem.Addr(j*1370), Len: 1370})
		}
	}
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Queried {
			t.Error("expected OS query fallback")
		}
		if res.FailedAttempts == 0 {
			t.Error("expected at least one failed optimistic attempt")
		}
		if res.Registrations != arrays {
			t.Errorf("Registrations = %d, want %d (one per allocated run)", res.Registrations, arrays)
		}
		for _, b := range bufs {
			ok := false
			for _, mr := range res.MRs {
				if mr.Covers(b) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("buffer %v not covered after fallback", b)
			}
		}
		Release(p, Direct{h}, res)
	})
	run(t, eng)
}

func TestSmallFailedGroupRegistersIndividually(t *testing.T) {
	eng, h := newHCA(t)
	s := h.Space()
	b1 := s.Malloc(mem.PageSize)
	s.Reserve(2)
	b2 := s.Malloc(mem.PageSize)
	bufs := []mem.Extent{
		{Addr: b1, Len: mem.PageSize},
		{Addr: b2, Len: mem.PageSize},
	}
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Queried {
			t.Error("small group should not query the OS")
		}
		if res.Registrations != 2 {
			t.Errorf("Registrations = %d, want 2", res.Registrations)
		}
		Release(p, Direct{h}, res)
	})
	run(t, eng)
}

func TestBufferInsideHoleIsAnError(t *testing.T) {
	eng, h := newHCA(t)
	s := h.Space()
	base := s.Malloc(mem.PageSize)
	s.Reserve(1)
	s.Malloc(mem.PageSize)
	bufs := []mem.Extent{
		{Addr: base, Len: mem.PageSize},
		{Addr: base + mem.PageSize + 100, Len: 100}, // inside the hole
	}
	eng.Go("t", func(p *sim.Proc) {
		_, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err == nil {
			t.Fatal("expected error for unallocated buffer")
		}
	})
	run(t, eng)
	if h.NumMRs() != 0 {
		t.Errorf("NumMRs = %d after failure, want 0 (cleanup)", h.NumMRs())
	}
}

func TestDisableGroupingMatchesIndividual(t *testing.T) {
	eng, h := newHCA(t)
	bufs := rowBuffers(h.Space(), 64, 4096, 8192)
	cfg := DefaultConfig()
	cfg.DisableGrouping = true
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Registrations != 64 {
			t.Errorf("Registrations = %d, want 64", res.Registrations)
		}
		Release(p, Direct{h}, res)
	})
	run(t, eng)
}

func TestOGRIsCheaperThanIndividual(t *testing.T) {
	eng, h := newHCA(t)
	bufs := rowBuffers(h.Space(), 1024, 4096, 8192)
	var ogrTime, indivTime sim.Duration
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ogrTime = res.RegTime
		Release(p, Direct{h}, res)

		cfg := DefaultConfig()
		cfg.DisableGrouping = true
		res2, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		indivTime = res2.RegTime
		Release(p, Direct{h}, res2)
	})
	run(t, eng)
	if ogrTime*2 >= indivTime {
		t.Errorf("OGR (%v) should be far cheaper than individual (%v)", ogrTime, indivTime)
	}
}

func TestCachedRegistrarHitsOnRepeat(t *testing.T) {
	eng, h := newHCA(t)
	cache := ib.NewRegCache(h, 1<<30, 1024)
	bufs := rowBuffers(h.Space(), 128, 4096, 8192)
	var first, second sim.Duration
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Cached{cache}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		first = res.RegTime
		Release(p, Cached{cache}, res)

		res2, err := RegisterBuffers(p, Cached{cache}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		second = res2.RegTime
		Release(p, Cached{cache}, res2)
	})
	run(t, eng)
	if second != 0 {
		t.Errorf("second registration cost %v, want 0 (cache hit)", second)
	}
	if first == 0 {
		t.Error("first registration should cost time")
	}
}

func TestWholeSpanAblation(t *testing.T) {
	eng, h := newHCA(t)
	a1 := rowBuffers(h.Space(), 4, 4096, 4096)
	h.Space().Malloc(100 * mem.PageSize)
	a2 := rowBuffers(h.Space(), 4, 4096, 4096)
	bufs := append(append([]mem.Extent{}, a1...), a2...)
	cfg := DefaultConfig()
	cfg.WholeSpan = true
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Registrations != 1 {
			t.Errorf("Registrations = %d, want 1 whole-span reg", res.Registrations)
		}
		Release(p, Direct{h}, res)
	})
	run(t, eng)
}

func TestEmptyBufferList(t *testing.T) {
	eng, h := newHCA(t)
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), nil, DefaultConfig())
		if err != nil || len(res.MRs) != 0 {
			t.Errorf("res=%+v err=%v", res, err)
		}
	})
	run(t, eng)
}

func TestSubtractHoles(t *testing.T) {
	span := mem.Extent{Addr: 0x1000, Len: 0x5000}
	holes := []mem.Extent{
		{Addr: 0x2000, Len: 0x1000},
		{Addr: 0x4000, Len: 0x1000},
	}
	runs := subtractHoles(span, holes)
	want := []mem.Extent{
		{Addr: 0x1000, Len: 0x1000},
		{Addr: 0x3000, Len: 0x1000},
		{Addr: 0x5000, Len: 0x1000},
	}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run %d = %v, want %v", i, runs[i], want[i])
		}
	}
}

func TestUnsortedBuffersAreSorted(t *testing.T) {
	eng, h := newHCA(t)
	bufs := rowBuffers(h.Space(), 16, 4096, 8192)
	// Shuffle deterministically.
	for i := range bufs {
		j := (i * 7) % len(bufs)
		bufs[i], bufs[j] = bufs[j], bufs[i]
	}
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Registrations != 1 {
			t.Errorf("Registrations = %d, want 1", res.Registrations)
		}
		Release(p, Direct{h}, res)
	})
	run(t, eng)
}
