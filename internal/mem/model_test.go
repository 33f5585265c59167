package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"pvfsib/internal/sim"
)

// pageSpace is the address space as it was before mappings: one PageSize
// slice per allocated page in a map. It is the oracle the extent
// implementation is held to, op by op. Its methods are the former
// AddrSpace's, verbatim, except Copy, which the former code got wrong on
// overlapping ranges and which here goes through a temporary, and the byte
// accesses, which also fail on an unbacked byte: one of a page allocated but
// nil, or past the end of a page's shorter slice (Exchange), and which back
// the reserved pages they touch.
type pageSpace struct {
	name  string
	pages map[uint64][]byte
	// reserved holds, for each allocated page no access has touched yet,
	// the mapping it belongs to: touching any page of a mapping backs all
	// of it. A partial Free makes each piece a mapping of its own.
	reserved map[uint64]int
	ids      int // mappings named so far
	brk      Addr
	// backings counts the mappings an access backed.
	backings int64
}

func newPageSpace(name string) *pageSpace {
	return &pageSpace{name: name, pages: make(map[uint64][]byte), reserved: make(map[uint64]int), brk: Addr(1 << 20)}
}

func (s *pageSpace) Malloc(size int64) Addr {
	base := s.brk
	npages := (size + PageSize - 1) / PageSize
	first := base.PageOf()
	s.ids++
	for i := int64(0); i < npages; i++ {
		s.pages[first+uint64(i)] = nil
		s.reserved[first+uint64(i)] = s.ids
	}
	s.brk = base + Addr(npages*PageSize)
	return base
}

func (s *pageSpace) Reserve(npages int64) { s.brk += Addr(npages * PageSize) }

func (s *pageSpace) Free(e Extent) {
	if e.Len <= 0 {
		return
	}
	first := e.Addr.PageOf()
	last := (e.End() - 1).PageOf()
	for pg := first; pg <= last; pg++ {
		delete(s.pages, pg)
		delete(s.reserved, pg)
	}
	// A reserved mapping cut in two leaves two mappings.
	if id, ok := s.reserved[first-1]; ok && s.reserved[last+1] == id {
		s.ids++
		for pg := last + 1; s.reserved[pg] == id; pg++ {
			s.reserved[pg] = s.ids
		}
	}
}

// touch backs, with zeros, every reserved mapping the extent touches.
func (s *pageSpace) touch(e Extent) {
	for pg := e.Addr.PageOf(); e.Len > 0 && pg <= (e.End()-1).PageOf(); pg++ {
		id, ok := s.reserved[pg]
		if !ok {
			continue
		}
		lo := pg
		for s.reserved[lo-1] == id {
			lo--
		}
		for q := lo; s.reserved[q] == id; q++ {
			delete(s.reserved, q)
			s.pages[q] = make([]byte, PageSize)
		}
		s.backings++
	}
}

func (s *pageSpace) Allocated(e Extent) bool {
	if e.Len <= 0 {
		return true
	}
	first := e.Addr.PageOf()
	last := (e.End() - 1).PageOf()
	for pg := first; pg <= last; pg++ {
		if _, ok := s.pages[pg]; !ok {
			return false
		}
	}
	return true
}

func (s *pageSpace) Holes(e Extent) []Extent {
	var holes []Extent
	if e.Len <= 0 {
		return holes
	}
	first := e.Addr.PageOf()
	last := (e.End() - 1).PageOf()
	var open *Extent
	for pg := first; pg <= last; pg++ {
		if _, ok := s.pages[pg]; ok {
			open = nil
			continue
		}
		if open != nil {
			open.Len += PageSize
			continue
		}
		holes = append(holes, Extent{Addr: Addr(pg * PageSize), Len: PageSize})
		open = &holes[len(holes)-1]
	}
	return holes
}

// backed is Allocated with every byte also backed or reserved.
func (s *pageSpace) backed(e Extent) bool {
	if !s.Allocated(e) {
		return false
	}
	for a := e.Addr; a < e.End(); a = Addr((a.PageOf() + 1) * PageSize) {
		pg := a.PageOf()
		if _, ok := s.reserved[pg]; ok {
			continue
		}
		if hi := min(e.End(), Addr((pg+1)*PageSize)) - Addr(pg*PageSize); int(hi) > len(s.pages[pg]) {
			return false
		}
	}
	return true
}

// Exchange backs the first len(data) of the n bytes at addr, a whole
// mapping, with a copy of data and unbacks the rest, and returns the bytes
// they held, nil if none.
func (s *pageSpace) Exchange(addr Addr, n int64, data []byte) []byte {
	var old []byte
	for off := int64(0); off < n; off += PageSize {
		pg := (addr + Addr(off)).PageOf()
		if s.pages[pg] != nil {
			old = append(old, s.pages[pg]...)
		}
		delete(s.reserved, pg)
		s.pages[pg] = nil
		if off < int64(len(data)) {
			s.pages[pg] = bytes.Clone(data[off:min(off+PageSize, int64(len(data)))])
		}
	}
	return old
}

func (s *pageSpace) Write(addr Addr, data []byte) error {
	e := Extent{Addr: addr, Len: int64(len(data))}
	if !s.backed(e) {
		return &errRange{space: s.name, op: "write", e: e}
	}
	s.touch(e)
	for len(data) > 0 {
		pg := addr.PageOf()
		off := int(uint64(addr) % PageSize)
		n := copy(s.pages[pg][off:], data)
		data = data[n:]
		addr += Addr(n)
	}
	return nil
}

func (s *pageSpace) ReadInto(addr Addr, dst []byte) error {
	e := Extent{Addr: addr, Len: int64(len(dst))}
	if !s.backed(e) {
		return &errRange{space: s.name, op: "read", e: e}
	}
	s.touch(e)
	for len(dst) > 0 {
		pg := addr.PageOf()
		off := int(uint64(addr) % PageSize)
		n := copy(dst, s.pages[pg][off:])
		dst = dst[n:]
		addr += Addr(n)
	}
	return nil
}

func (s *pageSpace) Copy(dst, src Addr, n int64) error { return s.CopyFrom(dst, s, src, n) }

func (s *pageSpace) CopyFrom(dst Addr, from *pageSpace, src Addr, n int64) error {
	if n <= 0 {
		return nil
	}
	if !from.backed(Extent{Addr: src, Len: n}) {
		return &errRange{space: from.name, op: "read", e: Extent{Addr: src, Len: n}}
	}
	if !s.backed(Extent{Addr: dst, Len: n}) {
		return &errRange{space: s.name, op: "write", e: Extent{Addr: dst, Len: n}}
	}
	tmp := make([]byte, n)
	if err := from.ReadInto(src, tmp); err != nil {
		return err
	}
	return s.Write(dst, tmp)
}

func (s *pageSpace) AllocatedPages() int { return len(s.pages) }

// pair drives an AddrSpace and the oracle with the same calls and fails the
// test at the first result, error or byte in which they differ.
type pair struct {
	t      testing.TB
	s      *AddrSpace
	m      *pageSpace
	base   Addr     // first address Malloc can return
	allocs []Extent // every Malloc so far, freed or not
	stamp  byte     // varies the bytes written
}

func newPair(t testing.TB) *pair {
	p := &pair{t: t, s: NewAddrSpace("x"), m: newPageSpace("x")}
	p.base = p.s.brk
	return p
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// malloc reserves: what the new mapping reads, and the storage its first
// access gives it, the oracle's reads and backing counts check.
func (p *pair) malloc(size int64) Extent {
	p.t.Helper()
	brk := p.s.brk
	a, b := p.s.Malloc(size), p.m.Malloc(size)
	if a != b || a != brk {
		p.t.Fatalf("Malloc(%d) = %#x, oracle %#x, break before %#x: an address moved or was handed out twice", size, uint64(a), uint64(b), uint64(brk))
	}
	e := Extent{Addr: a, Len: size}
	p.allocs = append(p.allocs, e)
	return e
}

// backings fails the test unless every mapping an access backed drew its
// storage from the free lists or from make exactly once.
func (p *pair) backings() {
	p.t.Helper()
	if hc := p.s.HostCost(); hc.Fresh+hc.Recycled != p.m.backings {
		p.t.Fatalf("%d fresh + %d recycled storages, oracle %d mappings backed", hc.Fresh, hc.Recycled, p.m.backings)
	}
}

func (p *pair) reserve(npages int64) {
	p.s.Reserve(npages)
	p.m.Reserve(npages)
}

func (p *pair) free(e Extent) {
	p.s.Free(e)
	p.m.Free(e)
}

// fill returns n bytes no earlier write produced.
func (p *pair) fill(n int64) []byte {
	p.stamp += 17
	data := make([]byte, n)
	for i := range data {
		data[i] = p.stamp + byte(i*3) | 1 // never zero
	}
	return data
}

// write writes n fresh bytes at addr. A lent range it covers whole must go
// unsettled, and one it covers in part settled; both are released.
func (p *pair) write(addr Addr, n int64) {
	p.t.Helper()
	data := p.fill(n)
	whole, part := p.lendsUnder(addr, n)
	err := p.s.Write(addr, data)
	if a, b := errText(err), errText(p.m.Write(addr, data)); a != b {
		p.t.Fatalf("Write(%#x, %d): %q, oracle %q", uint64(addr), n, a, b)
	}
	if err != nil {
		return
	}
	for _, l := range whole {
		if !l.released || l.settled {
			p.t.Fatalf("Write(%#x, %d) over the whole of a lent range: released %t, settled %t; want released unsettled", uint64(addr), n, l.released, l.settled)
		}
	}
	for _, l := range part {
		if !l.released || !l.settled {
			p.t.Fatalf("Write(%#x, %d) over part of a lent range: released %t, settled %t; want settled and released", uint64(addr), n, l.released, l.settled)
		}
	}
}

// lendsUnder returns the stubs of the lent ranges that n bytes at addr
// cover whole, and of those they cover in part.
func (p *pair) lendsUnder(addr Addr, n int64) (whole, part []*stubLender) {
	for i := range p.s.maps {
		m := &p.s.maps[i]
		for _, ld := range m.lends {
			lo, hi := m.base+Addr(ld.lo), m.base+Addr(ld.hi)
			switch {
			case hi <= addr || addr+Addr(n) <= lo:
			case addr <= lo && hi <= addr+Addr(n):
				whole = append(whole, ld.l.(*stubLender))
			default:
				part = append(part, ld.l.(*stubLender))
			}
		}
	}
	return whole, part
}

func (p *pair) read(addr Addr, n int64) {
	p.t.Helper()
	got, want := bytes.Repeat([]byte{0xEE}, int(n)), bytes.Repeat([]byte{0xEE}, int(n))
	if a, b := errText(p.s.ReadInto(addr, got)), errText(p.m.ReadInto(addr, want)); a != b {
		p.t.Fatalf("ReadInto(%#x, %d): %q, oracle %q", uint64(addr), n, a, b)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		p.t.Fatalf("ReadInto(%#x, %d): byte %d is %#x, oracle %#x", uint64(addr), n, i, got[i], want[i])
	}
}

func (p *pair) copy(dst, src Addr, n int64) {
	p.t.Helper()
	if a, b := errText(p.s.Copy(dst, src, n)), errText(p.m.Copy(dst, src, n)); a != b {
		p.t.Fatalf("Copy(%#x, %#x, %d): %q, oracle %q", uint64(dst), uint64(src), n, a, b)
	}
}

// copyFrom moves n bytes from src in the other pair's space to dst in this
// one, in both implementations.
func (p *pair) copyFrom(dst Addr, from *pair, src Addr, n int64) {
	p.t.Helper()
	if a, b := errText(p.s.CopyFrom(dst, from.s, src, n)), errText(p.m.CopyFrom(dst, from.m, src, n)); a != b {
		p.t.Fatalf("CopyFrom(%#x, %s, %#x, %d): %q, oracle %q", uint64(dst), from.s.name, uint64(src), n, a, b)
	}
}

// exchange backs the first length bytes of the mapping Malloc made for e
// with fresh bytes — all of it if length is n or more — or unbacks it if
// length is 0, and compares the storage it gave back with the oracle's. A
// mapping freed since, wholly or in part, is left alone: only a whole one
// exchanges.
func (p *pair) exchange(e Extent, length int64) {
	p.t.Helper()
	n := (e.Len + PageSize - 1) / PageSize * PageSize
	if !p.m.Allocated(Extent{Addr: e.Addr, Len: n}) {
		return
	}
	var data []byte
	if length > 0 {
		data = p.fill(min(length, n))
	}
	want := p.m.Exchange(e.Addr, n, data)
	// A lent range gives back what the mapping's storage held there: its
	// lender is released unsettled.
	lends := p.lends(e.Addr)
	for _, l := range lends {
		copy(want[l.at:], l.storage)
	}
	got := p.s.Exchange(e.Addr, data)
	for _, l := range lends {
		if !l.released || l.settled {
			p.t.Fatalf("Exchange of a lent mapping: loan released %t, settled %t; want released unsettled", l.released, l.settled)
		}
	}
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		p.t.Fatalf("Exchange(%v, %d bytes) gave back %d bytes, oracle %d, or different ones", e, len(data), len(got), len(want))
	}
}

// stubLender owes a lent range the bytes it was made with; the storage is
// the range's, at offset at of its mapping, and the stub fails the test on
// any call after its release. It forks unless refuse is set.
type stubLender struct {
	t        testing.TB
	owed     []byte
	storage  []byte
	at       int
	refuse   bool
	settled  bool
	released bool
}

func (l *stubLender) live(what string) {
	if l.released {
		l.t.Fatalf("%s after the loan was released", what)
	}
}

func (l *stubLender) ReadAt(dst []byte, off int64) {
	l.live("ReadAt")
	copy(dst, l.owed[off:])
}

func (l *stubLender) Settle() {
	l.live("Settle")
	if !l.settled {
		copy(l.storage, l.owed)
	}
	l.settled = true
}

func (l *stubLender) Release() {
	l.live("Release")
	l.released = true
}

func (l *stubLender) Fork(dst []byte, off int64) Lender {
	l.live("Fork")
	if l.refuse || l.settled {
		return nil
	}
	// The mapping's offset is the space's to know; lends sets it.
	return &stubLender{t: l.t, owed: l.owed[off : off+int64(len(dst))], storage: dst}
}

// lends returns the stubs the mapping at addr owes its bytes to, with their
// offsets in it, none if it is not a whole mapping.
func (p *pair) lends(addr Addr) []*stubLender {
	i := p.s.search(addr)
	if i == len(p.s.maps) || p.s.maps[i].base != addr {
		return nil
	}
	var out []*stubLender
	for _, ld := range p.s.maps[i].lends {
		l := ld.l.(*stubLender)
		l.at = ld.lo
		out = append(out, l)
	}
	return out
}

// whole returns the mapping Malloc made for e if it is still whole, nil if
// it was freed since, wholly or in part.
func (p *pair) whole(e Extent) *mapping {
	i := p.s.search(e.Addr)
	if i == len(p.s.maps) || p.s.maps[i].base != e.Addr || p.s.maps[i].part {
		return nil
	}
	if n := (e.Len + PageSize - 1) / PageSize * PageSize; p.s.maps[i].size != int(n) {
		return nil
	}
	return &p.s.maps[i]
}

// lend lends the mapping Malloc made for e, if it is still whole and has
// been touched, to a stub owing fresh bytes; the oracle takes those bytes
// as written. What the mapping's storage held stays in it, and every
// lender it had settles it there before its release.
func (p *pair) lend(e Extent, refuse bool) {
	p.t.Helper()
	m := p.whole(e)
	if m == nil || m.reserved {
		return
	}
	old := p.lends(e.Addr)
	l := &stubLender{t: p.t, owed: p.fill(int64(len(m.data))), storage: m.data, refuse: refuse}
	p.s.Lend(e.Addr, l)
	for _, o := range old {
		if !o.settled || !o.released {
			p.t.Fatalf("Lend over a lent mapping: a loan before was settled %t, released %t", o.settled, o.released)
		}
	}
	if len(l.owed) > 0 {
		sim.Must(p.m.Write(e.Addr, l.owed))
	}
}

// perCall marks the mapping Malloc made for e, if it is still whole, as
// per-call: from here on what lands in it from a lent range is lent to it.
func (p *pair) perCall(e Extent) {
	if p.whole(e) != nil {
		p.s.PerCall(e.Addr)
	}
}

// endCall ends a call of the mapping Malloc made for e, if it is still
// whole and per-call: every range lent to it is released, and under
// sim.PoisonReleased the oracle takes the poison the storage holds there as
// written.
func (p *pair) endCall(e Extent) {
	p.t.Helper()
	if m := p.whole(e); m == nil || !m.perCall {
		return
	}
	lends := p.lends(e.Addr)
	p.s.EndCall(e.Addr)
	for _, l := range lends {
		if !l.released {
			p.t.Fatalf("EndCall left the range at +%d lent", l.at)
		}
		sim.Must(p.m.Write(e.Addr+Addr(l.at), bytes.Repeat([]byte{0xDB}, len(l.storage))))
	}
	if len(p.lends(e.Addr)) != 0 {
		p.t.Fatalf("EndCall left %d ranges lent", len(p.lends(e.Addr)))
	}
}

func (p *pair) query(e Extent) {
	p.t.Helper()
	if a, b := p.s.Allocated(e), p.m.Allocated(e); a != b {
		p.t.Fatalf("Allocated(%v) = %t, oracle %t", e, a, b)
	}
	if a, b := p.s.Accessible(e), p.m.backed(e); a != b {
		p.t.Fatalf("Accessible(%v) = %t, oracle %t", e, a, b)
	}
	if a, b := p.s.Holes(e), p.m.Holes(e); !slices.Equal(a, b) || (a == nil) != (b == nil) {
		p.t.Fatalf("Holes(%v) = %v, oracle %v", e, a, b)
	}
	if a, b := p.s.AllocatedPages(), p.m.AllocatedPages(); a != b {
		p.t.Fatalf("AllocatedPages = %d, oracle %d", a, b)
	}
}

// sweep compares every page between the first address and the break, which
// backs every reserved mapping, then the invariants of the mapping list
// itself.
func (p *pair) sweep() {
	p.t.Helper()
	p.backings()
	p.query(Extent{Addr: p.base, Len: int64(p.s.brk - p.base)})
	for a := p.base; a < p.s.brk; a += PageSize {
		p.read(a, PageSize)
	}
	p.backings()
	var free int64
	for n, l := range p.s.free {
		free += n * int64(len(*l))
		for _, b := range *l {
			if int64(len(b)) != n || !bytes.Equal(b, make([]byte, n)) {
				p.t.Fatalf("free list of size %d holds a buffer of %d bytes, or one that is not zero", n, len(b))
			}
		}
	}
	if free != p.s.freeBytes || free > recycleMaxBytes {
		p.t.Fatalf("free lists hold %d bytes, counted %d, bound %d", free, p.s.freeBytes, recycleMaxBytes)
	}
	for i := range p.s.maps {
		m := &p.s.maps[i]
		if uint64(m.base)%PageSize != 0 || m.size == 0 || m.size%PageSize != 0 || len(m.data) > m.size || m.reserved {
			p.t.Fatalf("mapping %d: base %#x, %d bytes, %d of storage, reserved %t after a read", i, uint64(m.base), m.size, len(m.data), m.reserved)
		}
		if i > 0 && m.base < p.s.maps[i-1].end() {
			p.t.Fatalf("mapping %d at %#x starts below the end of its predecessor", i, uint64(m.base))
		}
	}
}

// rebuild retires the space — its storage poisoned on the way into the store
// or not — and sweeps a pair on a new space that mallocs the size of every
// whole mapping the old one had, so that their first touches borrow what the
// old one handed in: every byte must read as zero, and every backing count
// as the oracle's. The retirement releases every lent range unsettled.
func (p *pair) rebuild(poisoned bool) {
	p.t.Helper()
	var lends []*stubLender
	var sizes []int64
	for i := range p.s.maps {
		lends = append(lends, p.lends(p.s.maps[i].base)...)
		if !p.s.maps[i].part {
			sizes = append(sizes, int64(p.s.maps[i].size))
		}
	}
	defer func(was bool) { sim.PoisonReleased = was }(sim.PoisonReleased)
	sim.PoisonReleased = poisoned
	p.s.Retire()
	for _, l := range lends {
		if !l.released || l.settled {
			p.t.Fatalf("Retire of a lent mapping: loan released %t, settled %t; want released unsettled", l.released, l.settled)
		}
	}
	q := newPair(p.t)
	q.s.name, q.m.name = p.s.name, p.m.name
	for _, n := range sizes {
		q.malloc(n)
	}
	q.sweep()
	if hc := q.s.HostCost(); hc.Recycled != 0 {
		p.t.Fatalf("a new space backed %d mappings with recycled storage before it freed any", hc.Recycled)
	}
}

// script turns a byte string into calls: each op draws its operands from
// the bytes that follow, and reads as zeros past the end.
type script struct {
	b []byte
}

func (sc *script) byte() int64 {
	if len(sc.b) == 0 {
		return 0
	}
	v := sc.b[0]
	sc.b = sc.b[1:]
	return int64(v)
}

func (sc *script) word() int64 { return sc.byte()<<8 | sc.byte() }

// place draws an address in or shortly past a past allocation — so also in
// freed memory, in reserved holes and in the neighbour — and a length of up
// to four pages.
func (p *pair) place(sc *script) (Addr, int64) {
	if len(p.allocs) == 0 {
		return p.base, 1 + sc.word()%(4*PageSize)
	}
	e := p.allocs[sc.byte()%int64(len(p.allocs))]
	return e.Addr + Addr(sc.word()%(e.Len+PageSize)), 1 + sc.word()%(4*PageSize)
}

// runScript interprets data against two fresh pairs, one address space and
// its peer: every op but the last two works on the current pair. Released
// storage is poisoned, as a dropped per-call range must read. At the end the
// pair's space retires, its storage poisoned in the store for every other
// length of data, and a new space backs its sizes from the store.
func runScript(t testing.TB, data []byte) {
	t.Helper()
	defer func(was bool) { sim.PoisonReleased = was }(sim.PoisonReleased)
	sim.PoisonReleased = true
	p, peer := newPair(t), newPair(t)
	peer.s.name, peer.m.name = "y", "y"
	sc := &script{b: data}
	for ops := 0; len(sc.b) > 0 && ops < 2000; ops++ {
		switch op := sc.byte() % 21; op {
		case 0:
			p.malloc(1 + sc.word()%(6*PageSize))
		case 1: // a size seen before: the one that recycles
			if len(p.allocs) > 0 {
				p.malloc(p.allocs[sc.byte()%int64(len(p.allocs))].Len)
			}
		case 2:
			p.reserve(sc.byte() % 4)
		case 3: // whole
			if len(p.allocs) > 0 {
				p.free(p.allocs[sc.byte()%int64(len(p.allocs))])
			}
		case 4: // partial
			addr, n := p.place(sc)
			p.free(Extent{Addr: addr, Len: n})
		case 5: // from inside one allocation to inside a later one
			if len(p.allocs) > 0 {
				i := sc.byte() % int64(len(p.allocs))
				j := min(i+sc.byte()%5, int64(len(p.allocs))-1)
				from := p.allocs[i].Addr + Addr(sc.word()%p.allocs[i].Len)
				to := p.allocs[j].Addr + Addr(sc.word()%p.allocs[j].Len)
				p.free(Extent{Addr: from, Len: int64(to) - int64(from)})
			}
		case 6, 7:
			addr, n := p.place(sc)
			p.write(addr, n)
		case 8:
			addr, n := p.place(sc)
			p.read(addr, n)
		case 9:
			src, n := p.place(sc)
			dst, _ := p.place(sc)
			p.copy(dst, src, n)
		case 10: // overlapping, either way
			src, n := p.place(sc)
			p.copy(src+Addr(sc.word()%(2*n))-Addr(n), src, n)
		case 11:
			from, _ := p.place(sc)
			to, n := p.place(sc)
			p.query(Extent{Addr: min(from, to), Len: int64(max(from, to)-min(from, to)) + n})
		case 12, 13, 14: // backed whole (12), unbacked, or backed up to a byte count (14), from any
			if len(p.allocs) > 0 {
				e := p.allocs[sc.byte()%int64(len(p.allocs))]
				length := map[int64]int64{12: e.Len + PageSize, 13: 0, 14: 1 + sc.word()%e.Len}[op]
				p.exchange(e, length)
			}
		case 15: // the peer takes the ops from here on
			p, peer = peer, p
		case 16: // from the peer into this space: an RDMA read landing
			src, n := peer.place(sc)
			dst, _ := p.place(sc)
			p.copyFrom(dst, peer, src, n)
		case 17: // whole, forking or not
			if len(p.allocs) > 0 {
				p.lend(p.allocs[sc.byte()%int64(len(p.allocs))], sc.byte()%4 == 0)
			}
		case 18: // what lands in it from here on is lent to it
			if len(p.allocs) > 0 {
				p.perCall(p.allocs[sc.byte()%int64(len(p.allocs))])
			}
		case 19: // the call ends: its lent ranges go
			if len(p.allocs) > 0 {
				p.endCall(p.allocs[sc.byte()%int64(len(p.allocs))])
			}
		case 20: // a landing from the peer's lent mapping into a per-call one
			if len(p.allocs) > 0 && len(peer.allocs) > 0 {
				dst := p.allocs[sc.byte()%int64(len(p.allocs))]
				src := peer.allocs[sc.byte()%int64(len(peer.allocs))]
				p.perCall(dst)
				peer.lend(src, false)
				n := 1 + sc.word()%min(dst.Len, src.Len)
				p.copyFrom(dst.Addr+Addr(sc.word()%(dst.Len-n+1)), peer, src.Addr+Addr(sc.word()%(src.Len-n+1)), n)
			}
		}
		p.backings()
		peer.backings()
	}
	p.sweep()
	peer.sweep()
	p.rebuild(len(data)%2 == 0)
}

func TestAddrSpaceModelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20030902))
	borrows := Store().Borrows
	for iter := 0; iter < 150; iter++ {
		data := make([]byte, 200+rng.Intn(6000))
		rng.Read(data)
		runScript(t, data)
	}
	if Store().Borrows == borrows {
		t.Error("no rebuilt space borrowed storage from the store")
	}
}

// fuzzScriptBytes bounds the script one fuzz input runs, some 40 ops. The
// fuzzer minimizes every input that finds new coverage by running up to
// n²/2 shorter ones, so a worker handed a script of thousands of bytes
// spends the whole smoke minimizing it and runs no new input. Long scripts
// are TestAddrSpaceModelRandom's.
const fuzzScriptBytes = 128

func FuzzAddrSpaceModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 16, 64, fuzzScriptBytes} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data[:min(len(data), fuzzScriptBytes)]) })
}

// TestModelFreeEveryOtherPage cuts one mapping into 500 and checks that
// accesses, hole queries and frees across the pieces agree with the oracle.
func TestModelFreeEveryOtherPage(t *testing.T) {
	p := newPair(t)
	e := p.malloc(1000 * PageSize)
	p.write(e.Addr, e.Len)
	for pg := int64(1); pg < 1000; pg += 2 {
		p.free(Extent{Addr: e.Addr + Addr(pg*PageSize), Len: PageSize})
	}
	if n := len(p.s.Holes(e)); n != 500 {
		t.Fatalf("%d holes, want 500", n)
	}
	p.write(e.Addr+10*PageSize+5, 100)                                   // inside a piece
	p.write(e.Addr+10*PageSize+5, PageSize)                              // into the hole after it
	p.read(e.Addr+998*PageSize, PageSize)                                // the last piece
	p.copy(e.Addr+4*PageSize, e.Addr, 4000)                              // piece to piece
	p.free(Extent{Addr: e.Addr + 100*PageSize + 1, Len: 300 * PageSize}) // 151 pieces at once
	p.query(e)
	p.sweep()
}

// TestCopyOverlap pins memmove semantics: with the ranges overlapping in
// either direction, inside one mapping and across two adjacent ones, dst
// receives what src held before the call.
func TestCopyOverlap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sizes    []int64 // adjacent Mallocs
		src, dst int64   // offsets from the first
		n        int64
	}{
		{"up inside one mapping", []int64{4 * PageSize}, 0, 100, 10000},
		{"down inside one mapping", []int64{4 * PageSize}, 100, 0, 10000},
		{"up across two mappings", []int64{2 * PageSize, 2 * PageSize}, 300, 300 + PageSize + 7, 2*PageSize + 1000},
		{"down across two mappings", []int64{2 * PageSize, 2 * PageSize}, 300 + PageSize + 7, 300, 2*PageSize + 1000},
		{"up across three, by less than a page", []int64{PageSize, PageSize, PageSize}, 0, 50, 3*PageSize - 50},
		{"onto itself", []int64{PageSize, PageSize}, 10, 10, PageSize},
	} {
		p := newPair(t)
		base := p.malloc(tc.sizes[0]).Addr
		for _, sz := range tc.sizes[1:] {
			p.malloc(sz)
		}
		p.write(base, int64(p.s.brk-base))
		before, _ := p.s.Read(base+Addr(tc.src), tc.n)
		p.copy(base+Addr(tc.dst), base+Addr(tc.src), tc.n)
		if after, _ := p.s.Read(base+Addr(tc.dst), tc.n); !bytes.Equal(after, before) {
			t.Errorf("%s: dst does not hold what src held", tc.name)
		}
		p.sweep()
	}
}

// backing reads the mapping at addr whole, which backs it and checks that
// it reads as the oracle does, and returns the address range of its storage.
func (p *pair) backing(addr Addr) (lo, hi uintptr) {
	m := &p.s.maps[p.s.covers(addr, 1, true)]
	p.read(m.base, int64(m.size))
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	return lo, lo + uintptr(len(m.data))
}

// TestRecycledBackingReadsZero: storage comes back zeroed wherever the
// previous owner wrote it — through Write or Copy, at its ends or in the
// middle — and storage that was only read comes back as it is.
func TestRecycledBackingReadsZero(t *testing.T) {
	const size = 16 * PageSize
	for _, tc := range []struct {
		name  string
		dirty func(p *pair, e Extent)
	}{
		{"only read", func(*pair, Extent) {}},
		{"middle", func(p *pair, e Extent) { p.write(e.Addr+5*PageSize+3, 100) }},
		{"both ends", func(p *pair, e Extent) { p.write(e.Addr, 1); p.write(e.End()-1, 1) }},
		{"copied into", func(p *pair, e Extent) {
			src := p.malloc(PageSize)
			p.write(src.Addr, PageSize)
			p.copy(e.Addr+7*PageSize-10, src.Addr, PageSize)
		}},
		{"copied backwards into", func(p *pair, e Extent) {
			p.write(e.Addr+100, 3000)
			p.copy(e.Addr+200, e.Addr+100, 3000)
		}},
		{"written across from the neighbour", func(p *pair, e Extent) { p.write(e.Addr-10, 20) }},
	} {
		p := newPair(t)
		p.malloc(PageSize) // the neighbour below
		e := p.malloc(size)
		tc.dirty(p, e)
		lo, _ := p.backing(e.Addr)
		p.free(e)
		again := p.malloc(size)
		if l, _ := p.backing(again.Addr); l != lo { // it reads zero, as the oracle's page does
			t.Errorf("%s: a mapping freed whole was not recycled by the next Malloc of its size", tc.name)
		}
		if again.Addr == e.Addr {
			t.Errorf("%s: address reused", tc.name)
		}
		p.sweep()
	}
}

// TestSplitBackingNotRecycled: the pieces of a partly freed mapping share
// one backing, so freeing a piece whole must not hand its bytes — which lie
// inside the siblings' storage — to a later Malloc.
func TestSplitBackingNotRecycled(t *testing.T) {
	p := newPair(t)
	e := p.malloc(8 * PageSize)
	p.write(e.Addr, e.Len)
	lo, hi := p.backing(e.Addr)
	p.free(Extent{Addr: e.Addr + 2*PageSize, Len: 2 * PageSize}) // pieces [0,2) and [4,8)
	p.free(Extent{Addr: e.Addr, Len: 2 * PageSize})              // the first piece, whole
	for _, size := range []int64{2 * PageSize, 8 * PageSize} {
		fresh := p.malloc(size)
		if l, _ := p.backing(fresh.Addr); lo <= l && l < hi {
			t.Errorf("Malloc(%d) got storage inside a backing whose sibling piece is alive", size)
		}
		p.write(fresh.Addr, size)
	}
	p.read(e.Addr+4*PageSize, 4*PageSize) // the living sibling still holds its bytes
	p.free(Extent{Addr: e.Addr + 4*PageSize, Len: 4 * PageSize})
	p.malloc(4 * PageSize) // zero (the sweep reads it), recycled or not
	p.malloc(8 * PageSize)
	p.sweep()
}

// TestFailingAccessMovesNoByte: an access that touches a hole anywhere
// fails before its first byte moves, for Write, ReadInto and both sides of
// Copy.
func TestFailingAccessMovesNoByte(t *testing.T) {
	p := newPair(t)
	a := p.malloc(2 * PageSize)
	b := p.malloc(PageSize) // adjacent: an access may cross into it
	p.reserve(1)
	c := p.malloc(PageSize)
	p.write(a.Addr, 3*PageSize)
	p.write(c.Addr, PageSize)
	before, _ := p.s.Read(a.Addr, 3*PageSize)

	if err := p.s.Write(a.Addr+100, make([]byte, 3*PageSize)); err == nil {
		t.Error("write into the hole after b succeeded")
	}
	if err := p.s.Copy(a.Addr+100, c.Addr-PageSize+1, PageSize); err == nil {
		t.Error("copy out of the hole succeeded")
	}
	if err := p.s.Copy(b.Addr+1, a.Addr, PageSize); err == nil {
		t.Error("copy into the hole succeeded")
	}
	dst := bytes.Repeat([]byte{0xEE}, 2*PageSize)
	if err := p.s.ReadInto(b.Addr, dst); err == nil || !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, 2*PageSize)) {
		t.Errorf("read across the hole: err %v, or dst was touched", err)
	}
	if after, _ := p.s.Read(a.Addr, 3*PageSize); !bytes.Equal(after, before) {
		t.Error("a failing access moved bytes")
	}
	// The oracle saw none of the failing calls, so the sweep also says that
	// nothing moved.
	p.sweep()
}

// TestAddressNeverHandedOutTwice: freed storage is reused, freed addresses
// are not — a stale address keeps failing after the storage behind it has
// gone to a new allocation.
func TestAddressNeverHandedOutTwice(t *testing.T) {
	p := newPair(t)
	seen := map[Addr]bool{}
	var stale []Extent
	for i := 0; i < 50; i++ {
		e := p.malloc(int64(1+i%3) * PageSize)
		if seen[e.Addr] {
			t.Fatalf("address %#x handed out twice", uint64(e.Addr))
		}
		seen[e.Addr] = true
		p.write(e.Addr, e.Len)
		p.free(e)
		stale = append(stale, e)
	}
	for _, e := range stale {
		if p.s.Allocated(e) || p.s.Write(e.Addr, []byte{1}) == nil {
			t.Fatalf("stale %v is accessible again", e)
		}
	}
	if p.s.freeBytes == 0 {
		t.Error("nothing was recycled")
	}
	p.sweep()
}

// TestRecycleBounded: the free lists stop at recycleMaxBytes, whatever is
// freed. Each buffer is written first, for an untouched one has no storage
// to recycle.
func TestRecycleBounded(t *testing.T) {
	s := NewAddrSpace("t")
	var es []Extent
	for i := 0; i < 5; i++ {
		es = append(es, Extent{Addr: s.Malloc(recycleMaxBytes / 4), Len: recycleMaxBytes / 4})
	}
	big := Extent{Addr: s.Malloc(recycleMaxBytes + PageSize), Len: recycleMaxBytes + PageSize}
	for _, e := range append(es, big) {
		sim.Must(s.Write(e.Addr, []byte{1}))
	}
	s.Free(big)
	for _, e := range es {
		s.Free(e)
	}
	quarters := 0
	if l := s.free[recycleMaxBytes/4]; l != nil {
		quarters = len(*l)
	}
	if s.freeBytes != recycleMaxBytes || quarters != 4 || s.free[big.Len] != nil {
		t.Errorf("kept %d bytes: %d quarter-bound buffers, and beyond the bound %v", s.freeBytes, quarters, s.free[big.Len])
	}
}

// TestCopyFromBetweenSpaces lands bytes from one space in another across
// mapping boundaries on both sides, and checks that an unbacked source or
// an unallocated destination fails with nothing written.
func TestCopyFromBetweenSpaces(t *testing.T) {
	p, peer := newPair(t), newPair(t)
	peer.s.name, peer.m.name = "y", "y"
	src := peer.malloc(2 * PageSize)
	peer.malloc(3 * PageSize)
	peer.write(src.Addr, 5*PageSize)
	dst := p.malloc(PageSize)
	p.malloc(4 * PageSize)
	p.write(dst.Addr, 5*PageSize)

	p.copyFrom(dst.Addr+100, peer, src.Addr+PageSize+7, 3*PageSize)
	p.sweep()

	peer.exchange(src, 0) // unbacked source
	before, _ := p.s.Read(dst.Addr, 5*PageSize)
	if err := p.s.CopyFrom(dst.Addr, peer.s, src.Addr+10, 100); err == nil {
		t.Error("CopyFrom out of an unbacked source succeeded")
	}
	if err := p.s.CopyFrom(p.s.brk-10, peer.s, src.End(), 100); err == nil {
		t.Error("CopyFrom into unallocated memory succeeded")
	}
	if after, _ := p.s.Read(dst.Addr, 5*PageSize); !bytes.Equal(after, before) {
		t.Error("a failed CopyFrom wrote bytes")
	}
	p.copyFrom(dst.Addr, peer, src.Addr+10, 100)
	p.sweep()
	peer.sweep()
}
