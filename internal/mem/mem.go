// Package mem simulates a process virtual address space on a compute node.
//
// InfiniBand memory registration operates on virtual memory regions: a
// registration fails if the region touches pages that the application never
// allocated, and discovering where the "true" holes lie costs a query to the
// operating system (the paper measures ≈70 µs per 1000 holes with a custom
// system call versus ≈1100 µs reading /proc/$pid/maps). This package models
// exactly those mechanics: page-granular allocations with real byte storage,
// byte-granular reads and writes, hole enumeration, and the query costs.
//
// Real data flows through the address space — tests can verify end-to-end
// integrity of every transfer path — while all costs are virtual time.
package mem

import (
	"fmt"
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

// AddrSpace is one process's simulated virtual memory.
type AddrSpace struct {
	name  string
	pages map[uint64][]byte // page index -> PageSize bytes, presence = allocated
	brk   Addr              // bump pointer for Malloc

	// MallocCalls counts allocations, for tests.
	MallocCalls int
}

// NewAddrSpace creates an empty address space. The bump allocator starts at
// a nonzero base so that address 0 is never valid.
func NewAddrSpace(name string) *AddrSpace {
	return &AddrSpace{
		name:  name,
		pages: make(map[uint64][]byte),
		brk:   Addr(1 << 20),
	}
}

// Name returns the label given at creation.
func (s *AddrSpace) Name() string { return s.name }

// Malloc allocates size bytes (rounded up to whole pages) at the current
// break and returns the page-aligned base address. Consecutive Mallocs are
// adjacent; use Reserve to introduce unallocated holes between them.
func (s *AddrSpace) Malloc(size int64) Addr {
	if size <= 0 {
		//pvfslint:ok nopanic Malloc's contract mirrors C malloc: a nonpositive size is a caller bug, and an error return would infect every inline call site
		panic("mem: Malloc of nonpositive size")
	}
	base := s.brk
	npages := (size + PageSize - 1) / PageSize
	first := base.PageOf()
	for i := int64(0); i < npages; i++ {
		s.pages[first+uint64(i)] = make([]byte, PageSize)
	}
	s.brk = base + Addr(npages*PageSize)
	s.MallocCalls++
	return base
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

// Free releases every allocated page overlapping the extent. Freeing
// unallocated pages is a no-op, as with munmap.
func (s *AddrSpace) Free(e Extent) {
	if e.Len <= 0 {
		return
	}
	first := e.Addr.PageOf()
	last := (e.End() - 1).PageOf()
	for pg := first; pg <= last; pg++ {
		delete(s.pages, pg)
	}
}

// Allocated reports whether every page overlapping the extent is allocated.
func (s *AddrSpace) Allocated(e Extent) bool {
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

// Holes returns the unallocated page-aligned gaps within the extent, in
// address order. An empty slice means the whole extent is allocated.
func (s *AddrSpace) Holes(e Extent) []Extent {
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
// byte is unallocated (a simulated segmentation fault), in which case no
// bytes are written.
func (s *AddrSpace) Write(addr Addr, data []byte) error {
	e := Extent{Addr: addr, Len: int64(len(data))}
	if !s.Allocated(e) {
		return &errRange{space: s.name, op: "write", e: e}
	}
	for len(data) > 0 {
		pg := addr.PageOf()
		off := int(uint64(addr) % PageSize)
		n := copy(s.pages[pg][off:], data)
		data = data[n:]
		addr += Addr(n)
	}
	return nil
}

// Read copies length bytes starting at addr into a fresh slice. It fails if
// any touched byte is unallocated.
func (s *AddrSpace) Read(addr Addr, length int64) ([]byte, error) {
	e := Extent{Addr: addr, Len: length}
	if !s.Allocated(e) {
		return nil, &errRange{space: s.name, op: "read", e: e}
	}
	out := make([]byte, length)
	dst := out
	for len(dst) > 0 {
		pg := addr.PageOf()
		off := int(uint64(addr) % PageSize)
		n := copy(dst, s.pages[pg][off:])
		dst = dst[n:]
		addr += Addr(n)
	}
	return out, nil
}

// ReadInto is like Read but fills the provided slice, avoiding allocation.
func (s *AddrSpace) ReadInto(addr Addr, dst []byte) error {
	e := Extent{Addr: addr, Len: int64(len(dst))}
	if !s.Allocated(e) {
		return &errRange{space: s.name, op: "read", e: e}
	}
	for len(dst) > 0 {
		pg := addr.PageOf()
		off := int(uint64(addr) % PageSize)
		n := copy(dst, s.pages[pg][off:])
		dst = dst[n:]
		addr += Addr(n)
	}
	return nil
}

// Copy moves n bytes from src to dst inside the address space without
// allocating — the primitive behind cache-page fills and drains, where a
// heap buffer per copy would dominate the client's steady state. The two
// ranges must not overlap (cache frames and user buffers never do); both
// must be fully allocated, and nothing is written on failure.
func (s *AddrSpace) Copy(dst, src Addr, n int64) error {
	if n <= 0 {
		return nil
	}
	if !s.Allocated(Extent{Addr: src, Len: n}) {
		return &errRange{space: s.name, op: "read", e: Extent{Addr: src, Len: n}}
	}
	if !s.Allocated(Extent{Addr: dst, Len: n}) {
		return &errRange{space: s.name, op: "write", e: Extent{Addr: dst, Len: n}}
	}
	for n > 0 {
		so := int64(uint64(src) % PageSize)
		do := int64(uint64(dst) % PageSize)
		chunk := PageSize - so
		if r := PageSize - do; r < chunk {
			chunk = r
		}
		if chunk > n {
			chunk = n
		}
		copy(s.pages[dst.PageOf()][do:do+chunk], s.pages[src.PageOf()][so:so+chunk])
		src += Addr(chunk)
		dst += Addr(chunk)
		n -= chunk
	}
	return nil
}

// AllocatedPages reports the number of currently allocated pages.
func (s *AddrSpace) AllocatedPages() int { return len(s.pages) }

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
	// allocation-trajectory numbers in BENCH_smoke.json.
	Gets, Hits int64
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
	return make([]byte, n, 1<<(scratchMinBits+c))
}

// Put returns a buffer obtained from Get to its size class. Ownership must
// be unique: recycling a buffer still referenced elsewhere corrupts a later
// Get. Buffers that are not pool-shaped (wrong capacity) and buffers beyond
// the class's retention bound are left to the GC.
func (p *ScratchPool) Put(b []byte) {
	c := cap(b)
	if p == nil || c < 1<<scratchMinBits || c > 1<<scratchMaxBits || c&(c-1) != 0 {
		return
	}
	cl := scratchClass(c)
	if len(p.classes[cl]) < scratchKeep(cl) {
		p.classes[cl] = append(p.classes[cl], b[:0])
	}
}
