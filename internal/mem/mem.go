// Package mem simulates a process virtual address space on a compute node.
//
// InfiniBand memory registration operates on virtual memory regions: a
// registration fails if the region touches pages that the application never
// allocated, and discovering where the "true" holes lie costs a query to the
// operating system (the paper measures ≈70 µs per 1000 holes with a custom
// system call versus ≈1100 µs reading /proc/$pid/maps). This package models
// exactly those mechanics: an address space is the sorted list of its
// mappings — page-aligned intervals, each one contiguous run of real bytes,
// which is what the operating system answers the hole query from — with
// byte-granular reads and writes, hole enumeration, and the query costs.
//
// Real data flows through the address space — tests can verify end-to-end
// integrity of every transfer path — while all costs are virtual time.
// An access costs one copy per mapping it crosses, usually one. Freed
// addresses are never handed out again; freed storage is (DESIGN.md §8.4).
//
// Malloc reserves: it takes the address, and the registration a caller
// makes over it is charged as pinned on the virtual clock, but the mapping
// gets its storage only at its first byte access, as NP-RDMA registers
// memory without pinning it and creates pages on first access. Exchange
// hands storage in and out of a mapping, and may back only a prefix of it:
// an I/O daemon lends a request the bytes the request names. Lend goes one
// step further: the mapping owes its bytes to a Lender — the daemon's file
// — and a read of it copies them from there until something settles them
// into the mapping's storage.
package mem

import (
	"fmt"
	"slices"
	"time"

	"pvfsib/internal/sim"
)

// PageSize is the virtual-memory page size, matching the testbed's Linux.
const PageSize = 4096

// Addr is a virtual address.
type Addr uint64

// PageOf returns the index of the page containing a.
func (a Addr) PageOf() uint64 { return uint64(a) / PageSize }

// Extent is a contiguous byte range [Addr, Addr+Len) in an address space.
type Extent struct {
	Addr Addr
	Len  int64
}

// End returns the first address past the extent.
func (e Extent) End() Addr { return e.Addr + Addr(e.Len) }

func (e Extent) String() string { return fmt.Sprintf("[%#x,+%d)", uint64(e.Addr), e.Len) }

// Pages returns the number of pages the extent overlaps.
func (e Extent) Pages() int64 {
	if e.Len <= 0 {
		return 0
	}
	first := e.Addr.PageOf()
	last := (e.End() - 1).PageOf()
	return int64(last - first + 1)
}

// QueryMethod selects how hole queries are answered, with different costs.
type QueryMethod int

const (
	// QuerySyscall models the paper's custom kernel walk: ≈70 µs per 1000
	// holes examined.
	QuerySyscall QueryMethod = iota
	// QueryProcMaps models reading /proc/$pid/maps: ≈1100 µs per 1000 holes.
	QueryProcMaps
	// QueryMincore models a per-page residency probe.
	QueryMincore
)

// queryCost returns the virtual time to enumerate holes over a span.
func queryCost(m QueryMethod, holes int, pages int64) sim.Duration {
	switch m {
	case QuerySyscall:
		return 2*time.Microsecond + time.Duration(holes)*70*time.Nanosecond
	case QueryProcMaps:
		return 50*time.Microsecond + time.Duration(holes)*1100*time.Nanosecond
	case QueryMincore:
		return time.Duration(pages) * 200 * time.Nanosecond
	default:
		//pvfslint:ok nopanic QueryMethod is a closed enum; a new variant is a compile-time omission here
		panic("mem: unknown query method")
	}
}

// AddrSpace is one process's simulated virtual memory: the list of its
// mappings, as the kernel keeps it. Addresses are handed out once and never
// again, so a stale registration or RDMA to freed memory always fails; the
// storage behind a mapping freed whole is kept for the next mapping of the
// same size that is backed.
type AddrSpace struct {
	name string
	maps []mapping // page-aligned, non-overlapping, sorted by base
	hint int       // index of the mapping search found last
	brk  Addr      // bump pointer for Malloc

	// free holds the zeroed storage of mappings freed whole, by size,
	// recycleMaxBytes of it at most. A list is reached by pointer, so that
	// taking from it on an access inserts nothing into the map.
	free      map[int64]*[][]byte
	freeBytes int64

	// MallocCalls counts allocations, for tests.
	MallocCalls int
	// host counts what the accesses cost the host (see HostCost).
	host sim.HostCost
}

// recycleMaxBytes bounds the freed storage one address space keeps.
const recycleMaxBytes = 64 << 20

// mapping is one contiguous allocated range with its bytes.
type mapping struct {
	base Addr
	size int // whole pages
	// data is the backed prefix of the mapping: size bytes, or fewer after
	// an Exchange, or nil while it is unbacked. A byte past it fails.
	data []byte
	// reserved marks a mapping no access has touched yet: its first byte
	// access backs all of it.
	reserved bool
	// dirtyLo and dirtyHi bound the bytes of data ever written, so that
	// recycling clears those and not the whole mapping.
	dirtyLo, dirtyHi int
	// part marks a piece of a partly freed backed mapping: it shares its
	// storage with its siblings, which therefore is never recycled.
	part bool
	// lender, when set, owes the mapping its bytes (Lend): reads ask it,
	// and it settles them into data before anything writes data.
	lender Lender
}

func (m *mapping) end() Addr { return m.base + Addr(m.size) }

func (m *mapping) dirty(lo, hi int) {
	m.dirtyLo, m.dirtyHi = min(m.dirtyLo, lo), max(m.dirtyHi, hi)
}

// settle has m's lender, if it has one, put what it owes into m's storage
// and lets it go: from then on the storage holds the mapping's bytes.
func (m *mapping) settle() {
	if l := m.lender; l != nil {
		m.lender = nil
		l.Settle()
		l.Release()
	}
}

// Lender owes a lent mapping its bytes (AddrSpace.Lend).
type Lender interface {
	// ReadAt fills dst with the mapping's bytes from offset off.
	ReadAt(dst []byte, off int64)
	// Settle copies what the lender owes into the storage the mapping held
	// when it was lent; a second Settle does nothing.
	Settle()
	// Release ends the loan: the mapping no longer refers to the lender.
	Release()
}

// piece returns the mapping of bytes [lo, hi) after a partial Free: a
// reserved one of its own if m is reserved, else a part sharing what m's
// storage holds of them.
func (m *mapping) piece(lo, hi int) mapping {
	p := mapping{base: m.base + Addr(lo), size: hi - lo, reserved: m.reserved, part: !m.reserved}
	if n := len(m.data); lo < n {
		p.data = m.data[lo:min(hi, n):min(hi, n)]
	}
	return p
}

// NewAddrSpace creates an empty address space. The bump allocator starts at
// a nonzero base so that address 0 is never valid.
func NewAddrSpace(name string) *AddrSpace {
	return &AddrSpace{name: name, brk: Addr(1 << 20), free: make(map[int64]*[][]byte)}
}

// Name returns the label given at creation.
func (s *AddrSpace) Name() string { return s.name }

// Malloc allocates size bytes (rounded up to whole pages) at the current
// break and returns the page-aligned base address. Consecutive Mallocs are
// adjacent; use Reserve to introduce unallocated holes between them. The
// mapping reads as zeros; its storage is made at its first byte access.
func (s *AddrSpace) Malloc(size int64) Addr {
	if size <= 0 {
		//pvfslint:ok nopanic Malloc's contract mirrors C malloc: a nonpositive size is a caller bug, and an error return would infect every inline call site
		panic("mem: Malloc of nonpositive size")
	}
	base := s.brk
	n := (size + PageSize - 1) / PageSize * PageSize
	s.maps = append(s.maps, mapping{base: base, size: int(n), reserved: true})
	s.brk = base + Addr(n)
	s.MallocCalls++
	return base
}

// bytes returns the storage of m, backing a reserved mapping first with
// recycled storage of its size if any is kept, and fresh storage otherwise.
func (s *AddrSpace) bytes(m *mapping) []byte {
	if !m.reserved {
		return m.data
	}
	n := int64(m.size)
	if l := s.free[n]; l != nil && len(*l) > 0 {
		k := len(*l) - 1
		m.data = (*l)[k]
		(*l)[k], *l = nil, (*l)[:k]
		s.freeBytes -= n
		s.host.Recycled++
	} else {
		m.data = make([]byte, n)
		s.host.Fresh++
		s.host.BytesCleared += n
	}
	m.reserved, m.dirtyLo, m.dirtyHi = false, m.size, 0
	return m.data
}

// Reserve advances the allocator by npages pages without allocating them,
// creating an unallocated hole after the most recent allocation.
func (s *AddrSpace) Reserve(npages int64) {
	if npages < 0 {
		//pvfslint:ok nopanic Reserve shares Malloc's inline-allocator contract: a negative count is a caller bug
		panic("mem: negative Reserve")
	}
	s.brk += Addr(npages * PageSize)
}

// pageSpan returns the page-aligned range covering a nonempty extent.
func (e Extent) pageSpan() (lo, hi Addr) {
	return Addr(e.Addr.PageOf() * PageSize), Addr(((e.End() - 1).PageOf() + 1) * PageSize)
}

// search returns the index of the first mapping that ends above addr — the
// one holding addr if any does — or len(s.maps).
func (s *AddrSpace) search(addr Addr) int {
	if h := s.hint; h < len(s.maps) && s.maps[h].base <= addr && addr < s.maps[h].end() {
		return h
	}
	lo, hi := 0, len(s.maps)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.maps[mid].end() > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.hint = lo
	return lo
}

// covers returns the index of the mapping holding addr if mappings cover
// [addr, addr+n) without a gap, and -1 otherwise; with access set, every
// byte of the range must also be backed or in a reserved mapping, which the
// access will back. n must be positive.
func (s *AddrSpace) covers(addr Addr, n int64, access bool) int {
	i := s.search(addr)
	if i == len(s.maps) || s.maps[i].base > addr {
		return -1
	}
	for j, end := i, addr+Addr(n); ; j++ {
		m := &s.maps[j]
		if access && !m.reserved && min(end, m.end()) > m.base+Addr(len(m.data)) {
			return -1
		}
		if m.end() >= end {
			return i
		}
		if j+1 == len(s.maps) || s.maps[j+1].base != s.maps[j].end() {
			return -1
		}
	}
}

// Free releases every allocated page overlapping the extent. Freeing
// unallocated pages is a no-op, as with munmap.
func (s *AddrSpace) Free(e Extent) {
	if e.Len <= 0 {
		return
	}
	lo, hi := e.pageSpan()
	keep := make([]mapping, 0, 2) // what stays of the first and the last mapping touched
	i := s.search(lo)
	j := i
	for ; j < len(s.maps) && s.maps[j].base < hi; j++ {
		m := &s.maps[j]
		m.settle() // what stays of m keeps its storage
		if lo <= m.base && m.end() <= hi {
			s.recycle(m)
			continue
		}
		if m.base < lo {
			keep = append(keep, m.piece(0, int(lo-m.base)))
		}
		if hi < m.end() {
			keep = append(keep, m.piece(int(hi-m.base), m.size))
		}
	}
	s.maps = slices.Replace(s.maps, i, j, keep...)
}

// recycle keeps the storage of a mapping freed whole for a later mapping of
// its size, zeroed again where it was written.
func (s *AddrSpace) recycle(m *mapping) {
	n := int64(m.size)
	if m.part || len(m.data) != m.size || s.freeBytes+n > recycleMaxBytes {
		return
	}
	if m.dirtyLo < m.dirtyHi {
		clear(m.data[m.dirtyLo:m.dirtyHi])
		s.host.BytesCleared += int64(m.dirtyHi - m.dirtyLo)
	}
	l := s.free[n]
	if l == nil {
		l = new([][]byte)
		s.free[n] = l
	}
	*l = append(*l, m.data)
	s.freeBytes += n
}

// Allocated reports whether every page overlapping the extent is allocated.
func (s *AddrSpace) Allocated(e Extent) bool {
	return e.Len <= 0 || s.covers(e.Addr, e.Len, false) >= 0
}

// Holes returns the unallocated page-aligned gaps within the extent, in
// address order. An empty slice means the whole extent is allocated.
func (s *AddrSpace) Holes(e Extent) []Extent {
	var holes []Extent
	if e.Len <= 0 {
		return holes
	}
	at, hi := e.pageSpan()
	for i := s.search(at); at < hi; i++ {
		next, resume := hi, hi // the hole's end, and where allocated memory ends after it
		if i < len(s.maps) && s.maps[i].base < hi {
			next, resume = s.maps[i].base, s.maps[i].end()
		}
		if at < next {
			holes = append(holes, Extent{Addr: at, Len: int64(next - at)})
		}
		at = resume
	}
	return holes
}

// QueryHoles enumerates the holes within the extent, charging the calling
// process the cost of the chosen query method.
func (s *AddrSpace) QueryHoles(p *sim.Proc, e Extent, m QueryMethod) []Extent {
	holes := s.Holes(e)
	p.Sleep(queryCost(m, len(holes), e.Pages()))
	return holes
}

// errRange reports an access outside allocated memory.
type errRange struct {
	space string
	op    string
	e     Extent
}

func (er *errRange) Error() string {
	return fmt.Sprintf("mem: %s: %s %v touches unallocated memory", er.space, er.op, er.e)
}

// Write copies data into the address space at addr. It fails if any touched
// byte is unallocated or unbacked (a simulated segmentation fault), in which
// case no bytes are written.
func (s *AddrSpace) Write(addr Addr, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	i := s.covers(addr, int64(len(data)), true)
	if i < 0 {
		return &errRange{space: s.name, op: "write", e: Extent{Addr: addr, Len: int64(len(data))}}
	}
	s.host.BytesCopied += int64(len(data))
	for off := int(addr - s.maps[i].base); len(data) > 0; i, off = i+1, 0 {
		m := &s.maps[i]
		m.settle()
		n := copy(s.bytes(m)[off:], data)
		m.dirty(off, off+n)
		data = data[n:]
	}
	return nil
}

// Read copies length bytes starting at addr into a fresh slice. It fails if
// any touched byte is unallocated or unbacked.
func (s *AddrSpace) Read(addr Addr, length int64) ([]byte, error) {
	out := make([]byte, length)
	if err := s.ReadInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto is like Read but fills the provided slice, avoiding allocation.
// A lent mapping's bytes come from its lender.
func (s *AddrSpace) ReadInto(addr Addr, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	i := s.covers(addr, int64(len(dst)), true)
	if i < 0 {
		return &errRange{space: s.name, op: "read", e: Extent{Addr: addr, Len: int64(len(dst))}}
	}
	s.host.BytesCopied += int64(len(dst))
	for off := int(addr - s.maps[i].base); len(dst) > 0; i, off = i+1, 0 {
		m := &s.maps[i]
		if m.lender == nil {
			dst = dst[copy(dst, s.bytes(m)[off:]):]
			continue
		}
		n := min(len(dst), len(m.data)-off)
		m.lender.ReadAt(dst[:n], int64(off))
		dst = dst[n:]
	}
	return nil
}

// Copy moves n bytes from src to dst inside the address space without
// allocating — the primitive behind cache-page fills and drains, where a
// heap buffer per copy would dominate the client's steady state. The ranges
// may overlap: dst receives what src held before the call, as with memmove.
// Both must be fully allocated and backed, and nothing is written on failure.
func (s *AddrSpace) Copy(dst, src Addr, n int64) error { return s.CopyFrom(dst, s, src, n) }

// CopyFrom moves n bytes from src in the address space from to dst in s, as
// Copy does inside one space (from may be s): one memmove per pair of
// mappings crossed, no buffer between them, and nothing written on failure.
// It is how an RDMA read lands straight from the responder's memory, or
// from the lender of the responder's mapping. The bytes count as copied in
// s.
func (s *AddrSpace) CopyFrom(dst Addr, from *AddrSpace, src Addr, n int64) error {
	if n <= 0 {
		return nil
	}
	si, di := from.covers(src, n, true), s.covers(dst, n, true)
	if si < 0 {
		return &errRange{space: from.name, op: "read", e: Extent{Addr: src, Len: n}}
	}
	if di < 0 {
		return &errRange{space: s.name, op: "write", e: Extent{Addr: dst, Len: n}}
	}
	// Usually one copy in all. With dst inside [src, src+n) of the same
	// space the pairs go last to first, so no source byte is overwritten
	// before it is read.
	s.host.BytesCopied += n
	back := from == s && src < dst && dst < src+Addr(n)
	if back {
		si, di = s.search(src+Addr(n)-1), s.search(dst+Addr(n)-1)
	}
	for n > 0 {
		sm, dm := &from.maps[si], &s.maps[di]
		dm.settle() // before sm is read: it may be dm
		sd, dd := from.bytes(sm), s.bytes(dm)
		so, do := int64(src)-int64(sm.base), int64(dst)-int64(dm.base)
		var c int64
		if back {
			c = min(so+n, do+n, n)
			so, do = so+n-c, do+n-c
			if so == 0 {
				si--
			}
			if do == 0 {
				di--
			}
		} else {
			c = min(int64(len(sd))-so, int64(len(dd))-do, n)
			src, dst = src+Addr(c), dst+Addr(c)
			if so+c == int64(len(sd)) {
				si++
			}
			if do+c == int64(len(dd)) {
				di++
			}
		}
		if sm.lender != nil {
			sm.lender.ReadAt(dd[do:do+c], so)
		} else {
			copy(dd[do:do+c], sd[so:so+c])
		}
		dm.dirty(int(do), int(do+c))
		n -= c
	}
	return nil
}

// Accessible reports whether a byte access of the whole extent would
// succeed: every byte allocated, and backed or in a mapping the access
// would back.
func (s *AddrSpace) Accessible(e Extent) bool {
	return e.Len <= 0 || s.covers(e.Addr, e.Len, true) >= 0
}

// Exchange backs the whole mapping that starts at addr with data, at most
// its length, or with nothing, and returns the storage it held (nil if none,
// as for a mapping never touched): bytes change owner without a copy. The
// mapping is backed up to len(data); it keeps its addresses and
// registrations, but a byte access past its backing fails as one to
// unallocated memory does. A piece of a partly freed mapping shares storage:
// no exchange. A lent mapping's lender is released without settling: the
// storage given back holds only what the lender settled into it, if it did.
func (s *AddrSpace) Exchange(addr Addr, data []byte) []byte {
	i := s.search(addr)
	if i == len(s.maps) || s.maps[i].base != addr || s.maps[i].part || len(data) > s.maps[i].size {
		sim.Failf("mem: %s: no whole mapping of at least %d bytes at %#x to exchange", s.name, len(data), uint64(addr))
	}
	m := &s.maps[i]
	if l := m.lender; l != nil {
		m.lender = nil
		l.Release()
	}
	old := m.data
	m.data, m.reserved, m.dirtyLo, m.dirtyHi = data, false, 0, m.size
	return old
}

// Lend makes the whole mapping that starts at addr owe its bytes to l. A
// read of it — ReadInto, the source side of CopyFrom — asks l for them, and
// whatever writes its storage — Write, CopyFrom into it, Free — has l settle
// them there first; Exchange releases l unsettled. The mapping keeps its
// storage, so Accessible and every fence on it answer as for a backed
// mapping. A mapping no access has touched has nothing to lend.
func (s *AddrSpace) Lend(addr Addr, l Lender) {
	i := s.search(addr)
	if i == len(s.maps) || s.maps[i].base != addr || s.maps[i].part || s.maps[i].reserved {
		sim.Failf("mem: %s: no whole touched mapping at %#x to lend", s.name, uint64(addr))
	}
	m := &s.maps[i]
	m.settle()
	m.lender = l
	m.dirty(0, len(m.data)) // the settle writes it
}

// HostCost returns what the space's storage has cost the host so far: bytes
// copied by Write, ReadInto, Copy and CopyFrom, bytes zeroed for fresh
// storage and on recycling, and how many mappings their first access backed
// with fresh storage against how many with freed storage.
func (s *AddrSpace) HostCost() sim.HostCost { return s.host }

// AllocatedPages reports the number of currently allocated pages.
func (s *AddrSpace) AllocatedPages() int {
	n := 0
	for i := range s.maps {
		n += s.maps[i].size / PageSize
	}
	return n
}

// ScratchPool recycles transient byte buffers by power-of-two size class:
// RDMA gather staging, the I/O daemon's request payloads and sieve windows,
// and similar copies that live only for one hop. It is not safe for
// concurrent use; each pool belongs to one node (or one engine shard),
// serialized by the engine's one-process-at-a-time execution. A nil pool is
// valid: Get allocates and Put discards.
const (
	scratchMinBits   = 6  // 64 B smallest class
	scratchMaxBits   = 26 // 64 MiB largest pooled class
	scratchClasses   = scratchMaxBits - scratchMinBits + 1
	scratchClassKeep = 64 // buffers retained per class, while they fit scratchClassKeepBytes
	// scratchClassKeepBytes bounds what one class pins: without it the 64
	// buffers of the 64 MiB class alone could hold 4 GiB.
	scratchClassKeepBytes = 64 << 20
)

type ScratchPool struct {
	classes [scratchClasses][][]byte

	// Gets and Hits count requests and free-list hits, for tests and the
	// allocation-trajectory numbers in BENCH_smoke.json; puts counts the
	// buffers handed back, kept or not.
	Gets, Hits int64
	puts       int64
	// missBytes is the storage the misses allocated.
	missBytes int64
}

// scratchClass returns the index of the smallest class holding n bytes.
func scratchClass(n int) int {
	c := 0
	for sz := 1 << scratchMinBits; sz < n; sz <<= 1 {
		c++
	}
	return c
}

// scratchKeep is how many free buffers class c retains.
func scratchKeep(c int) int {
	return min(scratchClassKeep, scratchClassKeepBytes>>(scratchMinBits+c))
}

// Get returns a length-n buffer with undefined contents. Requests beyond the
// largest class fall back to a plain allocation that Put will decline.
func (p *ScratchPool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return make([]byte, n)
	}
	p.Gets++
	if n > 1<<scratchMaxBits {
		p.missBytes += int64(n)
		return make([]byte, n)
	}
	c := scratchClass(n)
	if l := p.classes[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.classes[c] = l[:len(l)-1]
		p.Hits++
		return b[:n]
	}
	p.missBytes += 1 << (scratchMinBits + c)
	return make([]byte, n, 1<<(scratchMinBits+c))
}

// Out is how many buffers Get handed out and Put has not had back. Summed
// over pools that trade buffers it is zero when every buffer came home.
func (p *ScratchPool) Out() int64 { return p.Gets - p.puts }

// HostCost returns the pool's requests as host cost: hits reused a buffer,
// misses allocated (and the runtime zeroed) one.
func (p *ScratchPool) HostCost() sim.HostCost {
	return sim.HostCost{Fresh: p.Gets - p.Hits, Recycled: p.Hits, BytesCleared: p.missBytes}
}

// Put returns a buffer obtained from Get to its size class. Ownership must
// be unique: recycling a buffer still referenced elsewhere corrupts a later
// Get. Buffers that are not pool-shaped (wrong capacity) and buffers beyond
// the class's retention bound are left to the GC. Under sim.PoisonReleased
// its len(b) bytes are overwritten, so a stale reader sees garbage.
func (p *ScratchPool) Put(b []byte) {
	c := cap(b)
	if p == nil || c == 0 {
		return
	}
	p.puts++
	if sim.PoisonReleased && len(b) > 0 {
		b[0] = 0xDB
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	if c < 1<<scratchMinBits || c > 1<<scratchMaxBits || c&(c-1) != 0 {
		return
	}
	cl := scratchClass(c)
	if len(p.classes[cl]) < scratchKeep(cl) {
		p.classes[cl] = append(p.classes[cl], b[:0])
	}
}
