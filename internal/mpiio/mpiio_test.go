package mpiio

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pvfsib/internal/ib"
	"pvfsib/internal/mpi"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// fixture builds a cluster plus an MPI world with rank i on client i.
func fixture(t *testing.T, nServers, nRanks int) (*pvfs.Cluster, *mpi.World) {
	t.Helper()
	c := pvfs.NewCluster(sim.NewEngine(), pvfs.DefaultConfig(), nServers, nRanks)
	var hcas []*ib.HCA
	for _, cl := range c.Clients {
		hcas = append(hcas, cl.HCA())
	}
	w := mpi.NewWorld(c.Eng, hcas, func(rank int, n int64) { c.Clients[rank].Acct().BytesClientClient += n })
	return c, w
}

// spawnRanks runs fn on every rank and drives the cluster.
func spawnRanks(t *testing.T, c *pvfs.Cluster, w *mpi.World, fn func(p *sim.Proc, rank *mpi.Rank, client *pvfs.Client)) {
	t.Helper()
	for i := 0; i < w.Size(); i++ {
		r, cl := w.Rank(i), c.Clients[i]
		c.Eng.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) { fn(p, r, cl) })
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVectorFlatten(t *testing.T) {
	f := Vector(3, 10, 100)
	want := Flat{{Off: 0, Len: 10}, {Off: 100, Len: 10}, {Off: 200, Len: 10}}
	if len(f) != len(want) {
		t.Fatalf("got %v", f)
	}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("f[%d] = %v, want %v", i, f[i], want[i])
		}
	}
	if f.Total() != 30 || f.Span() != 210 {
		t.Errorf("Total=%d Span=%d", f.Total(), f.Span())
	}
}

func TestVectorMergesWhenStrideEqualsBlock(t *testing.T) {
	f := Vector(4, 10, 10)
	if len(f) != 1 || f[0].Len != 40 {
		t.Errorf("contiguous vector should merge: %v", f)
	}
}

func TestIndexedNormalizes(t *testing.T) {
	f, err := Indexed([]int64{100, 0, 50}, []int64{10, 50, 50})
	if err != nil {
		t.Fatal(err)
	}
	// 0..50, 50..100 and 100..110 are all adjacent: one region.
	if len(f) != 1 || f[0] != (pvfs.OffLen{Off: 0, Len: 110}) {
		t.Errorf("got %v", f)
	}
	g, err := Indexed([]int64{0, 60}, []int64{50, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Errorf("disjoint blocks merged: %v", g)
	}
	if _, err := Indexed([]int64{0, 60}, []int64{50}); err == nil {
		t.Error("mismatched slice lengths should error")
	}
}

func TestSubarray2D(t *testing.T) {
	// 4x4 ints, take the 2x2 block at (1,1).
	f, err := Subarray2D(4, 4, 2, 2, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Flat{{Off: (1*4 + 1) * 4, Len: 8}, {Off: (2*4 + 1) * 4, Len: 8}}
	if len(f) != 2 || f[0] != want[0] || f[1] != want[1] {
		t.Errorf("got %v, want %v", f, want)
	}
	if _, err := Subarray2D(4, 4, 2, 2, 3, 1, 4); err == nil {
		t.Error("out-of-bounds subarray should error")
	}
}

func TestSubarray2DFullWidthMerges(t *testing.T) {
	f, err := Subarray2D(8, 8, 2, 8, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 1 || f[0] != (pvfs.OffLen{Off: 16, Len: 16}) {
		t.Errorf("full-width rows should merge: %v", f)
	}
}

func TestSubarray3D(t *testing.T) {
	f, err := Subarray3D([3]int64{4, 4, 4}, [3]int64{2, 2, 4}, [3]int64{0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Subarray3D([3]int64{4, 4, 4}, [3]int64{2, 2, 4}, [3]int64{0, 3, 0}, 1); err == nil {
		t.Error("out-of-bounds 3-D subarray should error")
	}
	// Full fastest dimension: rows merge along j for fixed i? Row (i,j)
	// occupies offsets ((i*4+j)*4, +4); with j=0,1 adjacent they merge.
	if f.Total() != 16 {
		t.Errorf("Total = %d, want 16", f.Total())
	}
	if len(f) != 2 { // two i-planes of 8 contiguous bytes each
		t.Errorf("got %d regions: %v", len(f), f)
	}
}

func TestRepeatAndShift(t *testing.T) {
	f := Contig(10).Repeat(3, 100)
	want := Flat{{Off: 0, Len: 10}, {Off: 100, Len: 10}, {Off: 200, Len: 10}}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("got %v", f)
		}
	}
	g := f.Shift(5)
	if g[0].Off != 5 || g[2].Off != 205 {
		t.Errorf("Shift: %v", g)
	}
}

// TestConstructorsBuildTheirListOnce: a constructor sizes its list once and
// normalises it where it stands; Normalize and Shift on a list the caller
// holds copy and leave it as it was.
func TestConstructorsBuildTheirListOnce(t *testing.T) {
	must := func(_ Flat, err error) { sim.Must(err) }
	for name, build := range map[string]func(){
		"Vector":     func() { Vector(64, 8, 32) },
		"Subarray2D": func() { must(Subarray2D(64, 64, 16, 16, 8, 8, 4)) },
		"Subarray3D": func() { must(Subarray3D([3]int64{8, 8, 8}, [3]int64{4, 4, 4}, [3]int64{1, 1, 1}, 8)) },
		"Repeat":     func() { Contig(10).Repeat(16, 100) },
	} {
		if n := testing.AllocsPerRun(10, build); n > 1 {
			t.Errorf("%s: %.0f allocations, want its one list", name, n)
		}
	}
	offs, lens := []int64{300, 0, 100, 110}, []int64{10, 10, 10, 10}
	if n := testing.AllocsPerRun(10, func() { must(Indexed(offs, lens)) }); n > 1 {
		t.Errorf("Indexed out of order: %.0f allocations, want its one list", n)
	}
	mine := Flat{{Off: 300, Len: 10}, {Off: 0, Len: 10}, {Off: 10, Len: 10}}
	before := slices.Clone(mine)
	if got, want := mine.Normalize(), (Flat{{Off: 0, Len: 20}, {Off: 300, Len: 10}}); !slices.Equal(got, want) {
		t.Errorf("Normalize = %v, want %v", got, want)
	}
	mine.Shift(7)
	if !slices.Equal(mine, before) {
		t.Errorf("Normalize or Shift changed its receiver: %v, was %v", mine, before)
	}
}

func TestViewMap(t *testing.T) {
	// View: every other 10-byte block, displacement 1000.
	v := View{Disp: 1000, Pattern: Flat{{Off: 0, Len: 10}}, Extent: 20}
	got, err := v.Map(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	// View bytes 5..25 = last 5 of tile 0, all of tile 1, first 5 of tile 2.
	want := Flat{{Off: 1005, Len: 5}, {Off: 1020, Len: 10}, {Off: 1040, Len: 5}}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestViewMapZero(t *testing.T) {
	v := View{Pattern: Contig(8), Extent: 8}
	if f, err := v.Map(0, 0); f != nil || err != nil {
		t.Errorf("zero-length map should be nil, nil; got %v, %v", f, err)
	}
	empty := View{Extent: 8}
	if _, err := empty.Map(0, 8); err == nil {
		t.Error("mapping through an empty pattern should error")
	}
}

func TestForEachPieceAlignment(t *testing.T) {
	segs := []ib.SGE{{Addr: 0x1000, Len: 30}, {Addr: 0x2000, Len: 70}}
	accs := []pvfs.OffLen{{Off: 0, Len: 50}, {Off: 100, Len: 50}}
	var pieces [][]ib.SGE
	err := forEachPiece(new([]ib.SGE), segs, accs, func(acc pvfs.OffLen, frag []ib.SGE) error {
		pieces = append(pieces, append([]ib.SGE(nil), frag...)) // frag is reused
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 2 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	// First file region: 30 bytes of seg0 + 20 of seg1.
	if len(pieces[0]) != 2 || pieces[0][0].Len != 30 || pieces[0][1].Len != 20 {
		t.Errorf("piece 0 = %v", pieces[0])
	}
	if len(pieces[1]) != 1 || pieces[1][0].Addr != 0x2000+20 || pieces[1][0].Len != 50 {
		t.Errorf("piece 1 = %v", pieces[1])
	}
}

// blockColumn builds rank r's accesses for an n x n byte matrix distributed
// in block columns over size ranks, plus a matching contiguous memory
// buffer filled with a rank-specific pattern.
func blockColumn(cl *pvfs.Client, r, size int, n int64) ([]ib.SGE, []pvfs.OffLen, []byte) {
	colw := n / int64(size)
	accs := make([]pvfs.OffLen, 0, n)
	for row := int64(0); row < n; row++ {
		accs = append(accs, pvfs.OffLen{Off: row*n + int64(r)*colw, Len: colw})
	}
	total := n * colw
	addr := cl.Space().Malloc(total)
	data := make([]byte, total)
	for i := range data {
		data[i] = byte(int(r)*37 + i)
	}
	if err := cl.Space().Write(addr, data); err != nil {
		panic(err)
	}
	return []ib.SGE{{Addr: addr, Len: total}}, accs, data
}

func testMethodRoundTrip(t *testing.T, write, read Method) {
	c, w := fixture(t, 4, 4)
	const n = 512 // 512x512 bytes, 4 block columns of 128
	models := make([][]byte, 4)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "mat")
		segs, accs, data := blockColumn(cl, rank.ID(), 4, n)
		models[rank.ID()] = data
		if err := f.Write(p, write, segs, accs); err != nil {
			t.Errorf("rank %d write: %v", rank.ID(), err)
			return
		}
		rank.Barrier(p)
		// Read back my own column with the read method into fresh memory.
		total := int64(len(data))
		dst := cl.Space().Malloc(total)
		if err := f.Read(p, read, []ib.SGE{{Addr: dst, Len: total}}, accs); err != nil {
			t.Errorf("rank %d read: %v", rank.ID(), err)
			return
		}
		got, _ := cl.Space().Read(dst, total)
		if !bytes.Equal(got, data) {
			t.Errorf("rank %d: %s-write/%s-read mismatch", rank.ID(), write, read)
		}
	})
}

func TestMethodMatrixRoundTrips(t *testing.T) {
	methods := []Method{MultipleIO, DataSieving, ListIO, ListIOADS, Collective}
	for _, wm := range methods {
		for _, rm := range methods {
			wm, rm := wm, rm
			t.Run(fmt.Sprintf("%s_%s", wm, rm), func(t *testing.T) {
				testMethodRoundTrip(t, wm, rm)
			})
		}
	}
}

func TestMultipleIOIssuesOneRequestPerPiece(t *testing.T) {
	c, w := fixture(t, 2, 1)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "f")
		addr := cl.Space().Malloc(1 << 20)
		segs := []ib.SGE{{Addr: addr, Len: 10 * 100}}
		var accs []pvfs.OffLen
		for i := 0; i < 10; i++ {
			accs = append(accs, pvfs.OffLen{Off: int64(i) * 5000, Len: 100})
		}
		if err := f.Write(p, MultipleIO, segs, accs); err != nil {
			t.Fatal(err)
		}
		if c.Acct().WriteReqs != 10 {
			t.Errorf("WriteReqs = %d, want 10", c.Acct().WriteReqs)
		}
	})
}

func TestListIOBatchesRequests(t *testing.T) {
	c, w := fixture(t, 2, 1)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "f")
		addr := cl.Space().Malloc(1 << 20)
		segs := []ib.SGE{{Addr: addr, Len: 100 * 100}}
		var accs []pvfs.OffLen
		for i := 0; i < 100; i++ {
			accs = append(accs, pvfs.OffLen{Off: int64(i) * 3000, Len: 100})
		}
		if err := f.Write(p, ListIO, segs, accs); err != nil {
			t.Fatal(err)
		}
		// 100 pieces over 2 servers fit in one request per server.
		if c.Acct().WriteReqs > 2 {
			t.Errorf("WriteReqs = %d, want <=2", c.Acct().WriteReqs)
		}
	})
}

func TestDataSievingWriteFallsBackToMultiple(t *testing.T) {
	c, w := fixture(t, 2, 1)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "f")
		addr := cl.Space().Malloc(1 << 20)
		segs := []ib.SGE{{Addr: addr, Len: 500}}
		accs := []pvfs.OffLen{{Off: 0, Len: 100}, {Off: 1000, Len: 100}, {Off: 2000, Len: 100}, {Off: 3000, Len: 100}, {Off: 4000, Len: 100}}
		if err := f.Write(p, DataSieving, segs, accs); err != nil {
			t.Fatal(err)
		}
		if c.Acct().WriteReqs != 5 {
			t.Errorf("DS write sent %d requests, want 5 (multiple-I/O fallback)", c.Acct().WriteReqs)
		}
	})
}

func TestDataSievingReadFetchesWholeExtent(t *testing.T) {
	c, w := fixture(t, 2, 1)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "f")
		// Prepare 64k of data.
		src := cl.Space().Malloc(64 << 10)
		cl.Space().Write(src, bytes.Repeat([]byte{7}, 64<<10))
		if err := f.fh.Write(p, src, 64<<10, 0, pvfs.OpOptions{}); err != nil {
			t.Fatal(err)
		}
		before := c.Acct().BytesClientServer
		// Want 4 x 100 bytes spread over 64k.
		dst := cl.Space().Malloc(400)
		segs := []ib.SGE{{Addr: dst, Len: 400}}
		accs := []pvfs.OffLen{{Off: 0, Len: 100}, {Off: 20000, Len: 100}, {Off: 40000, Len: 100}, {Off: 60000, Len: 100}}
		if err := f.Read(p, DataSieving, segs, accs); err != nil {
			t.Fatal(err)
		}
		moved := c.Acct().BytesClientServer - before
		if moved < 60000 {
			t.Errorf("DS read moved %d bytes, want the whole ~60k extent", moved)
		}
		got, _ := cl.Space().Read(dst, 400)
		if !bytes.Equal(got, bytes.Repeat([]byte{7}, 400)) {
			t.Error("DS read data mismatch")
		}
	})
}

func TestCollectiveUsesClientClientCommAndFewRequests(t *testing.T) {
	c, w := fixture(t, 4, 4)
	const n = 1024
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "mat")
		segs, accs, _ := blockColumn(cl, rank.ID(), 4, n)
		if err := f.Write(p, Collective, segs, accs); err != nil {
			t.Error(err)
		}
	})
	if c.Acct().BytesClientClient == 0 {
		t.Error("collective write moved no client-client bytes")
	}
	// Each rank writes one contiguous 256k domain, which stripes over the
	// 4 servers: at most 4 request messages per rank — far fewer than the
	// 1024 pieces each rank holds.
	if c.Acct().WriteReqs > 16 {
		t.Errorf("collective write sent %d requests, want <=16", c.Acct().WriteReqs)
	}
}

func TestCollectiveWriteWithHolesRMW(t *testing.T) {
	c, w := fixture(t, 2, 2)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "f")
		// Pre-fill 0..4000 with 0xEE.
		if rank.ID() == 0 {
			src := cl.Space().Malloc(4000)
			cl.Space().Write(src, bytes.Repeat([]byte{0xEE}, 4000))
			if err := f.fh.Write(p, src, 4000, 0, pvfs.OpOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		rank.Barrier(p)
		// Sparse collective write: rank r writes 100 bytes at r*2000+500,
		// leaving holes that must survive.
		addr := cl.Space().Malloc(100)
		cl.Space().Write(addr, bytes.Repeat([]byte{byte(rank.ID() + 1)}, 100))
		segs := []ib.SGE{{Addr: addr, Len: 100}}
		accs := []pvfs.OffLen{{Off: int64(rank.ID())*2000 + 500, Len: 100}}
		if err := f.Write(p, Collective, segs, accs); err != nil {
			t.Fatal(err)
		}
		rank.Barrier(p)
		if rank.ID() == 0 {
			dst := cl.Space().Malloc(4000)
			if err := f.fh.Read(p, dst, 4000, 0, pvfs.OpOptions{}); err != nil {
				t.Fatal(err)
			}
			got, _ := cl.Space().Read(dst, 4000)
			for i := 0; i < 4000; i++ {
				want := byte(0xEE)
				if i >= 500 && i < 600 {
					want = 1
				}
				if i >= 2500 && i < 2600 {
					want = 2
				}
				if got[i] != want {
					t.Fatalf("byte %d = %x, want %x (hole clobbered?)", i, got[i], want)
				}
			}
		}
	})
}

func TestViewDrivenIO(t *testing.T) {
	c, w := fixture(t, 2, 1)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "f")
		// View selecting the first 8 bytes of every 32.
		f.SetView(View{Disp: 0, Pattern: Contig(8), Extent: 32})
		src := cl.Space().Malloc(64)
		want := bytes.Repeat([]byte{0xAB}, 64)
		cl.Space().Write(src, want)
		if err := f.WriteView(p, ListIO, []ib.SGE{{Addr: src, Len: 64}}, 0, 64); err != nil {
			t.Fatal(err)
		}
		dst := cl.Space().Malloc(64)
		if err := f.ReadView(p, ListIOADS, []ib.SGE{{Addr: dst, Len: 64}}, 0, 64); err != nil {
			t.Fatal(err)
		}
		got, _ := cl.Space().Read(dst, 64)
		if !bytes.Equal(got, want) {
			t.Error("view round trip mismatch")
		}
		// The file itself must have holes: byte 8 of the file is unwritten.
		probe := cl.Space().Malloc(32)
		if err := f.fh.Read(p, probe, 32, 0, pvfs.OpOptions{}); err != nil {
			t.Fatal(err)
		}
		raw, _ := cl.Space().Read(probe, 32)
		if !bytes.Equal(raw[:8], want[:8]) || raw[8] != 0 {
			t.Errorf("file layout wrong: % x", raw[:16])
		}
	})
}

func TestCollectiveOnWorldlessFileFails(t *testing.T) {
	c, w := fixture(t, 1, 1)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, nil, "f")
		addr := cl.Space().Malloc(100)
		err := f.Write(p, Collective, []ib.SGE{{Addr: addr, Len: 100}}, []pvfs.OffLen{{Off: 0, Len: 100}})
		if err != ErrNoWorld {
			t.Errorf("err = %v, want ErrNoWorld", err)
		}
	})
}

func TestFilePointerReadWrite(t *testing.T) {
	c, w := fixture(t, 2, 1)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "ptr")
		// Write three records through the pointer, then seek around.
		rec := func(b byte) []ib.SGE {
			addr := cl.Space().Malloc(100)
			cl.Space().Write(addr, bytes.Repeat([]byte{b}, 100))
			return []ib.SGE{{Addr: addr, Len: 100}}
		}
		for i := byte(1); i <= 3; i++ {
			if err := f.WriteNext(p, ListIO, rec(i), 100); err != nil {
				t.Fatal(err)
			}
		}
		if f.Tell() != 300 {
			t.Errorf("Tell = %d, want 300", f.Tell())
		}
		if got := f.GetSize(p); got != 300 {
			t.Errorf("GetSize = %d, want 300", got)
		}
		// Seek back to record 1 and read it.
		if _, err := f.Seek(p, 100, SeekSet); err != nil {
			t.Fatal(err)
		}
		dst := cl.Space().Malloc(100)
		if err := f.ReadNext(p, ListIOADS, []ib.SGE{{Addr: dst, Len: 100}}, 100); err != nil {
			t.Fatal(err)
		}
		got, _ := cl.Space().Read(dst, 100)
		if !bytes.Equal(got, bytes.Repeat([]byte{2}, 100)) {
			t.Errorf("record 1 read wrong: %v...", got[:4])
		}
		if f.Tell() != 200 {
			t.Errorf("Tell after read = %d, want 200", f.Tell())
		}
		// SeekEnd.
		if pos, _ := f.Seek(p, -50, SeekEnd); pos != 250 {
			t.Errorf("SeekEnd(-50) = %d, want 250", pos)
		}
		// SeekCur.
		if pos, _ := f.Seek(p, 10, SeekCur); pos != 260 {
			t.Errorf("SeekCur(+10) = %d, want 260", pos)
		}
		// Negative clamps to zero.
		if pos, _ := f.Seek(p, -999, SeekSet); pos != 0 {
			t.Errorf("negative seek = %d, want 0", pos)
		}
		if _, err := f.Seek(p, 0, 99); err == nil {
			t.Error("bad whence should error")
		}
	})
}

func TestFilePointerWithView(t *testing.T) {
	c, w := fixture(t, 2, 1)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "pview")
		// View: first 8 bytes of every 32, displaced by 64.
		f.SetView(View{Disp: 64, Pattern: Contig(8), Extent: 32})
		src := cl.Space().Malloc(24)
		cl.Space().Write(src, bytes.Repeat([]byte{0x5A}, 24))
		if err := f.WriteNext(p, ListIO, []ib.SGE{{Addr: src, Len: 24}}, 24); err != nil {
			t.Fatal(err)
		}
		// 24 view bytes = 3 tiles; the file extends to 64 + 2*32 + 8 = 136.
		if got := f.GetSize(p); got != 136 {
			t.Errorf("GetSize = %d, want 136", got)
		}
		// viewSize: bytes selected before EOF = 24.
		if got := f.viewSize(p); got != 24 {
			t.Errorf("viewSize = %d, want 24", got)
		}
		// SetView resets the pointer.
		f.SetView(View{Disp: 0, Pattern: Contig(8), Extent: 32})
		if f.Tell() != 0 {
			t.Error("SetView must reset the pointer")
		}
	})
}

func TestDelete(t *testing.T) {
	c, w := fixture(t, 2, 2)
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		if rank.ID() == 0 {
			f := Open(p, cl, rank, "gone")
			addr := cl.Space().Malloc(1000)
			cl.Space().Write(addr, bytes.Repeat([]byte{1}, 1000))
			f.Write(p, ListIO, []ib.SGE{{Addr: addr, Len: 1000}}, []pvfs.OffLen{{Off: 0, Len: 1000}})
			Delete(p, cl, "gone")
		}
		rank.Barrier(p)
		if rank.ID() == 1 {
			f := Open(p, cl, rank, "gone")
			if got := f.GetSize(p); got != 0 {
				t.Errorf("deleted file has size %d", got)
			}
		}
	})
}

// TestPropertyMethodsEquivalent drives every access method with the same
// randomly generated noncontiguous pattern and checks they all leave the
// file in the same state and read back the same bytes.
func TestPropertyMethodsEquivalent(t *testing.T) {
	type piece struct {
		Off uint16
		Len uint8
	}
	methods := []Method{MultipleIO, DataSieving, ListIO, ListIOADS, Collective}
	f := func(pieces []piece, seed byte) bool {
		if len(pieces) == 0 || len(pieces) > 16 {
			return true
		}
		// Build a deduplicated, disjoint pattern: sort by offset and clip.
		var accs []pvfs.OffLen
		cursor := int64(-1)
		offs := make([]int64, len(pieces))
		for i, pc := range pieces {
			offs[i] = int64(pc.Off) % 50000
		}
		sortInt64sForTest(offs)
		for i, off := range offs {
			if off <= cursor {
				off = cursor + 1
			}
			length := int64(pieces[i].Len)%700 + 1
			accs = append(accs, pvfs.OffLen{Off: off, Len: length})
			cursor = off + length
		}
		total := pvfs.TotalOffLen(accs)

		images := make([][]byte, len(methods))
		for mi, m := range methods {
			c, w := fixture(t, 3, 2)
			var img []byte
			ok := true
			spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
				file := Open(p, cl, rank, "prop")
				if rank.ID() == 0 {
					src := cl.Space().Malloc(total)
					data := make([]byte, total)
					for j := range data {
						data[j] = byte(int(seed) + j*3)
					}
					cl.Space().Write(src, data)
					if err := file.Write(p, m, []ib.SGE{{Addr: src, Len: total}}, accs); err != nil {
						ok = false
					}
				} else if m == Collective {
					// Collective calls need all ranks.
					if err := file.Write(p, m, nil, nil); err != nil {
						ok = false
					}
				}
				rank.Barrier(p)
				if rank.ID() == 1 {
					// Read the whole extent contiguously for the image.
					_, hi := extentOf(accs)
					dst := cl.Space().Malloc(hi)
					if err := file.fh.Read(p, dst, hi, 0, pvfs.OpOptions{}); err != nil {
						ok = false
						return
					}
					img, _ = cl.Space().Read(dst, hi)
				}
			})
			if !ok {
				return false
			}
			images[mi] = img
		}
		for mi := 1; mi < len(images); mi++ {
			if !bytes.Equal(images[0], images[mi]) {
				t.Logf("method %s image differs from %s", methods[mi], methods[0])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func sortInt64sForTest(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func TestCollectiveWindowedRounds(t *testing.T) {
	c, w := fixture(t, 4, 4)
	const n = 1024 // 1 MB extent
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "win")
		// Force a tiny per-rank window: 1 MB extent / (16 kB x 4 ranks)
		// = 16 rounds of exchange+write.
		f.SetCollectiveBuffer(16 << 10)
		segs, accs, data := blockColumn(cl, rank.ID(), 4, n)
		if err := f.Write(p, Collective, segs, accs); err != nil {
			t.Fatal(err)
		}
		rank.Barrier(p)
		// Read back collectively with a different window size.
		f.SetCollectiveBuffer(32 << 10)
		total := int64(len(data))
		dst := cl.Space().Malloc(total)
		if err := f.Read(p, Collective, []ib.SGE{{Addr: dst, Len: total}}, accs); err != nil {
			t.Fatal(err)
		}
		got, _ := cl.Space().Read(dst, total)
		if !bytes.Equal(got, data) {
			t.Errorf("rank %d: windowed collective round trip mismatch", rank.ID())
		}
	})
	// 16 rounds x 4 ranks x (up to 4 servers): far more write requests
	// than the single-round case, but each bounded by the window.
	if c.Acct().WriteReqs < 32 {
		t.Errorf("expected many windowed write requests, got %d", c.Acct().WriteReqs)
	}
}

func TestClipToExtent(t *testing.T) {
	segs := []ib.SGE{{Addr: 0x1000, Len: 100}}
	accs := []pvfs.OffLen{{Off: 0, Len: 30}, {Off: 50, Len: 70}}
	outSegs, outAccs, err := new(tpScratch).clipToExtent(segs, accs, 20, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Clipped: [20,30) from the first acc, [50,60) from the second.
	if len(outAccs) != 2 || outAccs[0] != (pvfs.OffLen{Off: 20, Len: 10}) || outAccs[1] != (pvfs.OffLen{Off: 50, Len: 10}) {
		t.Errorf("accs = %v", outAccs)
	}
	// Memory: bytes 20..30 and 30..40 of the segment.
	if ib.TotalLen(outSegs) != 20 {
		t.Errorf("segs = %v", outSegs)
	}
	if outSegs[0].Addr != 0x1000+20 {
		t.Errorf("first clipped seg at %#x", uint64(outSegs[0].Addr))
	}
}
