package mem

import (
	"testing"

	"pvfsib/internal/sim"
)

// The AddrSpace microbenchmarks measure the storage every payload byte
// passes through; the ledger's mem.host_ns.* kernels are the same shapes.

func benchSpace(b *testing.B, size int64) (*AddrSpace, Addr) {
	b.ReportAllocs()
	s := NewAddrSpace("b")
	return s, s.Malloc(size)
}

// Unaligned 4 kB writes walking a 16 MB mapping, as list-I/O rows do.
func BenchmarkAddrSpaceWrite4k(b *testing.B) {
	const span = 16 << 20
	s, base := benchSpace(b, span)
	data := make([]byte, 4<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Must(s.Write(base+Addr((i*6151)%(span-8192)), data))
	}
}

func BenchmarkAddrSpaceReadInto64k(b *testing.B) {
	const span = 16 << 20
	s, base := benchSpace(b, span)
	dst := make([]byte, 64<<10)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Must(s.ReadInto(base+Addr((i*6151)%(span-128<<10)), dst))
	}
}

// A cache hit: 2 kB from a page-cache frame to a user buffer in another
// mapping.
func BenchmarkAddrSpaceCopy2k(b *testing.B) {
	s, frames := benchSpace(b, 1<<20)
	user := s.Malloc(64 << 10)
	b.SetBytes(2 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Must(s.Copy(user+512, frames+Addr(i%120)*8192+512, 2<<10))
	}
}

// mpiio.Open's 4 MB data-sieving buffer over a round: allocated, touched in
// one place, freed.
func BenchmarkAddrSpaceMallocFree4M(b *testing.B) {
	s, _ := benchSpace(b, PageSize)
	one := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := Extent{Addr: s.Malloc(4 << 20), Len: 4 << 20}
		sim.Must(s.Write(e.Addr+1<<20, one))
		s.Free(e)
	}
}

// The OGR hole query: a 1000-page extent in which every tenth page is
// unallocated.
func BenchmarkAddrSpaceHoles1000(b *testing.B) {
	s, base := benchSpace(b, 1000*PageSize)
	for pg := int64(5); pg < 1000; pg += 10 {
		s.Free(Extent{Addr: base + Addr(pg*PageSize), Len: PageSize})
	}
	e := Extent{Addr: base, Len: 1000 * PageSize}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Holes(e)) != 100 {
			b.Fatal("wrong hole count")
		}
	}
}
