package mem

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"pvfsib/internal/sim"
)

func TestMallocAlignmentAndAdjacency(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(100)
	b := s.Malloc(PageSize + 1)
	if uint64(a)%PageSize != 0 || uint64(b)%PageSize != 0 {
		t.Error("Malloc results must be page-aligned")
	}
	if b != a+PageSize {
		t.Errorf("second Malloc at %#x, want adjacent %#x", uint64(b), uint64(a+PageSize))
	}
	c := s.Malloc(1)
	if c != b+2*PageSize {
		t.Errorf("third Malloc at %#x, want %#x (size rounded to 2 pages)", uint64(c), uint64(b+2*PageSize))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(3 * PageSize)
	data := make([]byte, 2*PageSize+123)
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Unaligned start, spanning page boundaries.
	addr := a + 517
	if err := s.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(addr, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
}

func TestReadIntoMatchesRead(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(PageSize)
	want := []byte("hello noncontiguous world")
	if err := s.Write(a+11, want); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(want))
	if err := s.ReadInto(a+11, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Error("ReadInto mismatch")
	}
}

func TestAccessUnallocatedFails(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(PageSize)
	s.Reserve(1)
	b := s.Malloc(PageSize)
	// Spanning the hole between a and b must fail.
	if err := s.Write(a, make([]byte, 2*PageSize+1)); err == nil {
		t.Error("write across hole succeeded")
	}
	if _, err := s.Read(a+PageSize, 10); err == nil {
		t.Error("read in hole succeeded")
	}
	if err := s.Write(b, []byte("x")); err != nil {
		t.Errorf("write to second allocation failed: %v", err)
	}
}

func TestWriteSpansAdjacentAllocations(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(PageSize)
	s.Malloc(PageSize)             // adjacent
	data := make([]byte, PageSize) // spans the boundary between the two
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.Write(a+PageSize-50, data); err != nil {
		t.Fatalf("write across adjacent allocations failed: %v", err)
	}
	got, err := s.Read(a+PageSize-50, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-allocation data mismatch")
	}
}

func TestAllocatedAndHoles(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(2 * PageSize)
	s.Reserve(3)
	b := s.Malloc(PageSize)
	span := Extent{Addr: a, Len: int64(b) - int64(a) + PageSize}
	if s.Allocated(span) {
		t.Error("span with hole reported allocated")
	}
	holes := s.Holes(span)
	if len(holes) != 1 {
		t.Fatalf("holes = %v, want 1 hole", holes)
	}
	if holes[0].Addr != a+2*PageSize || holes[0].Len != 3*PageSize {
		t.Errorf("hole = %v, want [a+2p, +3p)", holes[0])
	}
	if !s.Allocated(Extent{Addr: a, Len: 2 * PageSize}) {
		t.Error("fully allocated extent reported unallocated")
	}
	if len(s.Holes(Extent{Addr: a, Len: 2 * PageSize})) != 0 {
		t.Error("found holes in allocated extent")
	}
}

func TestHolesCoalesceAndMultiple(t *testing.T) {
	s := NewAddrSpace("t")
	start := s.Malloc(PageSize)
	var end Addr
	for i := 0; i < 4; i++ {
		s.Reserve(2)
		end = s.Malloc(PageSize)
	}
	span := Extent{Addr: start, Len: int64(end) - int64(start) + PageSize}
	holes := s.Holes(span)
	if len(holes) != 4 {
		t.Fatalf("got %d holes, want 4", len(holes))
	}
	for _, h := range holes {
		if h.Len != 2*PageSize {
			t.Errorf("hole %v, want len 2 pages", h)
		}
	}
}

func TestFree(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(4 * PageSize)
	s.Free(Extent{Addr: a + PageSize, Len: 2 * PageSize})
	if s.Allocated(Extent{Addr: a, Len: 4 * PageSize}) {
		t.Error("freed range still allocated")
	}
	if !s.Allocated(Extent{Addr: a, Len: PageSize}) {
		t.Error("first page should remain")
	}
	if !s.Allocated(Extent{Addr: a + 3*PageSize, Len: PageSize}) {
		t.Error("last page should remain")
	}
}

func TestQueryHolesChargesTime(t *testing.T) {
	eng := sim.NewEngine()
	s := NewAddrSpace("t")
	a := s.Malloc(PageSize)
	s.Reserve(1)
	b := s.Malloc(PageSize)
	span := Extent{Addr: a, Len: int64(b) - int64(a) + PageSize}

	var tSyscall, tProc sim.Time
	eng.Go("q", func(p *sim.Proc) {
		t0 := p.Now()
		holes := s.QueryHoles(p, span, QuerySyscall)
		tSyscall = p.Now() - t0
		if len(holes) != 1 {
			t.Errorf("syscall query found %d holes, want 1", len(holes))
		}
		t0 = p.Now()
		s.QueryHoles(p, span, QueryProcMaps)
		tProc = p.Now() - t0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if tSyscall <= 0 || tProc <= 0 {
		t.Fatal("queries must cost time")
	}
	if tProc <= tSyscall {
		t.Errorf("/proc query (%v) should be slower than syscall (%v)", tProc, tSyscall)
	}
}

func TestQueryMincoreScalesWithPages(t *testing.T) {
	eng := sim.NewEngine()
	s := NewAddrSpace("t")
	a := s.Malloc(100 * PageSize)
	var small, large sim.Time
	eng.Go("q", func(p *sim.Proc) {
		t0 := p.Now()
		s.QueryHoles(p, Extent{Addr: a, Len: 2 * PageSize}, QueryMincore)
		small = p.Now() - t0
		t0 = p.Now()
		s.QueryHoles(p, Extent{Addr: a, Len: 100 * PageSize}, QueryMincore)
		large = p.Now() - t0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("mincore over 100 pages (%v) should cost more than 2 pages (%v)", large, small)
	}
}

func TestExtentHelpers(t *testing.T) {
	e := Extent{Addr: PageSize - 1, Len: 2}
	if e.Pages() != 2 {
		t.Errorf("Pages = %d, want 2 (straddles a boundary)", e.Pages())
	}
	if (Extent{Addr: 0, Len: PageSize}).Pages() != 1 {
		t.Error("exactly one page")
	}
	if (Extent{Len: 0}).Pages() != 0 {
		t.Error("empty extent has pages")
	}
	if e.End() != PageSize+1 {
		t.Errorf("End = %d", e.End())
	}
}

func TestPropertyWriteReadAnywhere(t *testing.T) {
	s := NewAddrSpace("prop")
	base := s.Malloc(64 * PageSize)
	f := func(off uint16, val byte, n uint8) bool {
		length := int64(n)%512 + 1
		addr := base + Addr(uint64(off)%(62*PageSize))
		data := bytes.Repeat([]byte{val}, int(length))
		if err := s.Write(addr, data); err != nil {
			return false
		}
		got, err := s.Read(addr, length)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHolesPartitionSpan(t *testing.T) {
	// For any allocation pattern, holes + allocated pages tile the span.
	f := func(pattern []bool) bool {
		if len(pattern) == 0 || len(pattern) > 64 {
			return true
		}
		s := NewAddrSpace("prop")
		start := s.Malloc(PageSize) // anchor
		for _, alloc := range pattern {
			if alloc {
				s.Malloc(PageSize)
			} else {
				s.Reserve(1)
			}
		}
		end := s.Malloc(PageSize) // anchor
		span := Extent{Addr: start, Len: int64(end) - int64(start) + PageSize}
		var holeBytes int64
		for _, h := range s.Holes(span) {
			holeBytes += h.Len
			if s.Allocated(Extent{Addr: h.Addr, Len: 1}) {
				return false // hole overlaps an allocation
			}
		}
		var wantHoles int64
		for _, alloc := range pattern {
			if !alloc {
				wantHoles += PageSize
			}
		}
		return holeBytes == wantHoles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// scratchHits drains what the pool retained for size-n buffers after it was
// offered offered of them.
func scratchHits(n, offered int) int64 {
	var p ScratchPool
	bufs := make([][]byte, offered)
	for i := range bufs {
		bufs[i] = p.Get(n)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	for range bufs {
		p.Get(n)
	}
	return p.Hits
}

func TestScratchPoolRetentionBoundedInBytes(t *testing.T) {
	for _, tc := range []struct {
		size, offered int
		kept          int64
	}{
		{1 << 10, 70, 64}, // small classes keep 64 buffers
		{1 << 20, 70, 64}, // 64 x 1 MiB is exactly the byte bound
		{4 << 20, 20, 16}, // 4 MiB sieve windows: 64 MiB / 4 MiB
		{64 << 20, 2, 1},  // the largest class keeps one buffer, not 4 GiB
	} {
		if got := scratchHits(tc.size, tc.offered); got != tc.kept {
			t.Errorf("class of %d B retained %d of %d buffers, want %d", tc.size, got, tc.offered, tc.kept)
		}
	}
}

func TestScratchPoolDeclinesForeignBuffers(t *testing.T) {
	var p ScratchPool
	for _, n := range []int{32, 100, 3000, 1<<20 + 1} {
		p.Put(make([]byte, n)) // capacity is no power of two, or below the smallest class
	}
	p.Put(make([]byte, 128<<20)) // beyond the largest class
	for _, n := range []int{32, 100, 3000, 1<<20 + 1} {
		p.Get(n)
	}
	if p.Hits != 0 || p.Gets != 4 {
		t.Errorf("foreign buffers were recycled: gets %d hits %d", p.Gets, p.Hits)
	}
	b := p.Get(100)
	p.Put(b)
	if got := p.Get(70); p.Hits != 1 || len(got) != 70 || cap(got) != 128 {
		t.Errorf("own buffer not recycled: hits %d len %d cap %d", p.Hits, len(got), cap(got))
	}
}

func TestNilScratchPoolAllocates(t *testing.T) {
	var p *ScratchPool
	if b := p.Get(100); len(b) != 100 {
		t.Errorf("nil pool Get(100) has length %d", len(b))
	}
	p.Put(make([]byte, 64))
	if p.Get(0) != nil {
		t.Error("Get(0) should be nil")
	}
}

// TestMallocReserves: a Malloc costs no storage until a byte access; then
// the mapping reads as zeros and was backed once.
func TestMallocReserves(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(4 * PageSize)
	if !s.Allocated(Extent{Addr: a, Len: 4 * PageSize}) || len(s.Holes(Extent{Addr: a, Len: 4 * PageSize})) != 0 {
		t.Error("a reserved mapping is not allocated")
	}
	if hc := s.HostCost(); hc != (sim.HostCost{}) {
		t.Errorf("Malloc, Allocated and Holes cost %+v, want nothing", hc)
	}
	got, err := s.Read(a+PageSize+3, 2*PageSize)
	if err != nil || !bytes.Equal(got, make([]byte, 2*PageSize)) {
		t.Errorf("untouched mapping read %d bytes, not all zero, err %v", len(got), err)
	}
	if hc := s.HostCost(); hc.Fresh != 1 || hc.BytesCleared != 4*PageSize {
		t.Errorf("first access cost %+v, want one fresh 4-page storage", hc)
	}
}

// TestExchangeUntouched: taking the storage out of a mapping never touched
// gives nothing back and leaves the mapping failing, as a free staging
// buffer is; backing it again makes it readable.
func TestExchangeUntouched(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(2 * PageSize)
	if old := s.Exchange(a, nil); old != nil {
		t.Errorf("Exchange of an untouched mapping gave back %d bytes", len(old))
	}
	if err := s.Write(a, []byte{1}); err == nil {
		t.Error("write to an unbacked mapping succeeded")
	}
	if hc := s.HostCost(); hc.Fresh+hc.Recycled != 0 {
		t.Errorf("an exchanged-out mapping was backed: %+v", hc)
	}
	s.Exchange(a, make([]byte, 2*PageSize))
	if err := s.Write(a+2*PageSize-1, []byte{1}); err != nil {
		t.Errorf("write after backing: %v", err)
	}
}

// TestPartialFreeUntouched: the pieces of an untouched mapping stay
// allocated, read as zeros and are backed each on its own.
func TestPartialFreeUntouched(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(4 * PageSize)
	s.Free(Extent{Addr: a + PageSize, Len: 2 * PageSize})
	if !s.Allocated(Extent{Addr: a, Len: PageSize}) || !s.Allocated(Extent{Addr: a + 3*PageSize, Len: PageSize}) ||
		s.Allocated(Extent{Addr: a + PageSize, Len: 1}) {
		t.Fatal("partial Free of an untouched mapping freed the wrong pages")
	}
	if err := s.Write(a+3*PageSize, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(a, PageSize); err != nil || !bytes.Equal(got, make([]byte, PageSize)) {
		t.Errorf("first piece read %d bytes, not all zero, err %v", len(got), err)
	}
	if hc := s.HostCost(); hc.Fresh != 2 || hc.BytesCleared != 2*PageSize {
		t.Errorf("pieces cost %+v, want one fresh page each", hc)
	}
	s.Free(Extent{Addr: a, Len: 4 * PageSize})
	if s.AllocatedPages() != 0 {
		t.Errorf("%d pages left", s.AllocatedPages())
	}
}

// TestShortExchange: storage shorter than the mapping backs a prefix of it;
// an access past the prefix fails and moves nothing, and the storage comes
// back out at its own length.
func TestShortExchange(t *testing.T) {
	s := NewAddrSpace("t")
	a := s.Malloc(4 * PageSize)
	b := s.Malloc(PageSize) // adjacent: an access may only cross into it from a full backing
	s.Exchange(a, make([]byte, 5000))
	if err := s.Write(a+4990, bytes.Repeat([]byte{9}, 10)); err != nil {
		t.Fatalf("write inside the backing: %v", err)
	}
	if err := s.Write(a+4990, bytes.Repeat([]byte{8}, 11)); err == nil {
		t.Error("write past a short backing succeeded")
	}
	if _, err := s.Read(a+3*PageSize, 1); err == nil {
		t.Error("read past a short backing succeeded")
	}
	if err := s.Copy(b, a+4999, 2); err == nil {
		t.Error("copy out past a short backing succeeded")
	}
	if err := s.Copy(a+4000, b, 2000); err == nil {
		t.Error("copy in past a short backing succeeded")
	}
	old := s.Exchange(a, nil)
	if len(old) != 5000 || !bytes.Equal(old[4990:], bytes.Repeat([]byte{9}, 10)) {
		t.Errorf("gave back %d bytes, want the 5000 lent with the write at 4990", len(old))
	}
	if _, err := s.Read(b, PageSize); err != nil {
		t.Errorf("the neighbour: %v", err)
	}
}

// TestCopyUpOverLentSource: a copy up within one per-call mapping whose
// source holds a lent range the destination does not reach still reads
// every source byte before the copy overwrites it, as memmove does.
func TestCopyUpOverLentSource(t *testing.T) {
	s := NewAddrSpace("t")
	a, b := s.Malloc(PageSize), s.Malloc(4*PageSize)
	pattern := func(n int, seed byte) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = seed + byte(i*7)
		}
		return out
	}
	sim.Must(s.Write(a, make([]byte, PageSize)))
	owed := pattern(PageSize, 0xA1)
	s.Lend(a, &stubLender{t: t, owed: owed, storage: s.maps[s.search(a)].data})
	orig := pattern(4*PageSize, 3)
	sim.Must(s.Write(b, orig))
	s.PerCall(b)
	sim.Must(s.CopyFrom(b+1000, s, a, 100)) // b's [1000, 1100) is lent now
	want := append(append(slices.Clone(orig[900:1000]), owed[:100]...), orig[1100:1300]...)
	sim.Must(s.Copy(b+1200, b+900, 400))
	if got, err := s.Read(b+1200, 400); err != nil || !bytes.Equal(got, want) {
		t.Errorf("Copy(b+1200, b+900, 400) over a lent source range (%v): the destination differs from the source before the copy", err)
	}
}

// TestStoreBound: a store keeps what retirements hand in up to its bound and
// leaves a piece that would pass it to the collector without clearing it; a
// borrow makes room.
func TestStoreBound(t *testing.T) {
	st := storage{max: 3 * PageSize}
	const page, two = PageSize, 2 * PageSize
	for range 4 {
		st.put(make([]byte, page), 0, 0)
	}
	st.put(make([]byte, two), 0, 0)
	if got := st.stats.BytesHeld; got != 3*PageSize || len(st.pieces[page]) != 3 || len(st.pieces[two]) != 0 {
		t.Fatalf("after 4 pages and a 2-page piece into a 3-page store: %d bytes held, %d pages, %d 2-page pieces; want 3 pages", got, len(st.pieces[page]), len(st.pieces[two]))
	}
	if _, ok := st.take(page); !ok {
		t.Fatal("a kept page could not be borrowed")
	}
	dropped := bytes.Repeat([]byte{7}, two)
	st.put(dropped, 0, two) // one page of room: dropped, and not cleared
	if got := st.stats; got.BytesHeld != 2*PageSize || got.Borrows != 1 || got.BytesServed != PageSize || dropped[0] != 7 {
		t.Fatalf("after a borrow and a 2-page piece with a page of room: %+v, the piece's first byte %d; want 2 pages held and the piece untouched", got, dropped[0])
	}
	st.put(make([]byte, page), 0, 0)
	if got := st.stats.BytesHeld; got != 3*PageSize || len(st.pieces[page]) != 3 {
		t.Fatalf("%d bytes held, %d pages; want the room the borrow made filled by a page", got, len(st.pieces[page]))
	}
}
