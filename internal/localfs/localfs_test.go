package localfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"pvfsib/internal/disk"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/sim/simtest"
	"pvfsib/internal/simnet"
)

func newFS(t testing.TB) (*sim.Engine, *FS) {
	t.Helper()
	eng := sim.NewEngine()
	d := disk.New(eng, "d", disk.DefaultParams())
	return eng, New(eng, d, DefaultParams())
}

func runSim(t testing.TB, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	eng.Go("test", fn)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "data")
		want := make([]byte, 10000)
		for i := range want {
			want[i] = byte(i * 13)
		}
		f.WriteAt(p, 777, want)
		got := f.ReadAt(p, 777, 10000)
		if !bytes.Equal(got, want) {
			t.Error("round trip mismatch")
		}
		if f.Size() != 777+10000 {
			t.Errorf("Size = %d", f.Size())
		}
	})
}

func TestReadBeyondEOF(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, []byte("hello"))
		if got := f.ReadAt(p, 3, 100); string(got) != "lo" {
			t.Errorf("short read = %q, want \"lo\"", got)
		}
		if got := f.ReadAt(p, 10, 5); got != nil {
			t.Errorf("read past EOF = %q, want nil", got)
		}
	})
}

func TestHolesReadAsZeros(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "sparse")
		f.WriteAt(p, 100000, []byte("end"))
		reads0 := fs.Disk().Counters.ReadOps
		got := f.ReadAt(p, 0, 10)
		if !bytes.Equal(got, make([]byte, 10)) {
			t.Errorf("hole read = %v, want zeros", got)
		}
		if fs.Disk().Counters.ReadOps != reads0 {
			t.Error("reading a hole hit the disk")
		}
	})
}

func TestWriteIsBufferedUntilSync(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, make([]byte, 1<<20))
		if fs.Disk().Counters.WriteOps != 0 {
			t.Error("buffered write hit the disk before sync")
		}
		f.Sync(p)
		if fs.Disk().Counters.WriteOps == 0 {
			t.Error("sync did not write to disk")
		}
	})
}

func TestSyncCoalescesAdjacentBlocks(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		// 64 contiguous dirty blocks + 1 distant one.
		f.WriteAt(p, 0, make([]byte, 64*4096))
		f.WriteAt(p, 1<<20, make([]byte, 4096))
		f.Sync(p)
		if n := fs.Disk().Counters.WriteOps; n != 2 {
			t.Errorf("sync issued %d device writes, want 2 (coalesced)", n)
		}
		// Second sync: nothing dirty.
		ops := fs.Disk().Counters.WriteOps
		f.Sync(p)
		if fs.Disk().Counters.WriteOps != ops {
			t.Error("second sync wrote again")
		}
	})
}

func TestCachedRereadSkipsDisk(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, make([]byte, 1<<20))
		fs.DropCaches(p)
		f.ReadAt(p, 0, 1<<20) // cold
		ops := fs.Disk().Counters.ReadOps
		t0 := p.Now()
		f.ReadAt(p, 0, 1<<20) // warm
		warm := p.Now().Sub(t0)
		if fs.Disk().Counters.ReadOps != ops {
			t.Error("warm read hit the disk")
		}
		// Warm read bandwidth ≈ 1391 MB/s.
		bw := float64(1<<20) / warm.Seconds() / simnet.MB
		if bw < 1000 || bw > 1500 {
			t.Errorf("cached read bandwidth %.0f MB/s, want ≈1391", bw)
		}
	})
}

func TestUncachedReadIsDiskBound(t *testing.T) {
	eng, fs := newFS(t)
	const size = 16 * simnet.MB
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, make([]byte, size))
		fs.DropCaches(p)
		t0 := p.Now()
		f.ReadAt(p, 0, size)
		bw := float64(size) / p.Now().Sub(t0).Seconds() / simnet.MB
		if bw < 15 || bw > 25 {
			t.Errorf("uncached read bandwidth %.1f MB/s, want ≈20 (Table 3)", bw)
		}
	})
}

func TestBufferedWriteBandwidthMatchesTable3(t *testing.T) {
	eng, fs := newFS(t)
	const size = 32 * simnet.MB
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		t0 := p.Now()
		const chunk = 1 << 20
		buf := make([]byte, chunk)
		for off := int64(0); off < size; off += chunk {
			f.WriteAt(p, off, buf)
		}
		bw := float64(size) / p.Now().Sub(t0).Seconds() / simnet.MB
		if bw < 280 || bw > 310 {
			t.Errorf("buffered write bandwidth %.0f MB/s, want ≈303 (Table 3)", bw)
		}
	})
}

func TestReadAheadReducesDeviceOps(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, make([]byte, 1<<20))
		fs.DropCaches(p)
		// Sequential 4k reads over 1 MB: with 256k read-ahead this
		// should cost ~4 device reads, not 256.
		for off := int64(0); off < 1<<20; off += 4096 {
			f.ReadAt(p, off, 4096)
		}
		if n := fs.Disk().Counters.ReadOps; n > 8 {
			t.Errorf("device reads = %d, want ≤8 with read-ahead", n)
		}
	})
}

func TestPartialBlockWriteTriggersRMWRead(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, make([]byte, 8192))
		fs.DropCaches(p)
		reads0 := fs.Disk().Counters.ReadOps
		f.WriteAt(p, 100, []byte("x")) // partial block, on media, uncached
		if fs.Disk().Counters.ReadOps == reads0 {
			t.Error("partial uncached block write should read the block first")
		}
	})
}

func TestCacheEvictionWritesDirtyBlocks(t *testing.T) {
	eng := sim.NewEngine()
	d := disk.New(eng, "d", disk.DefaultParams())
	params := DefaultParams()
	params.CacheBytes = 64 * 4096 // tiny cache
	fs := New(eng, d, params)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, make([]byte, 256*4096)) // 4x the cache
		if d.Counters.WriteOps == 0 {
			t.Error("evictions of dirty blocks must reach the disk")
		}
		if fs.CacheBytesUsed() > params.CacheBytes {
			t.Errorf("cache used %d > capacity %d", fs.CacheBytesUsed(), params.CacheBytes)
		}
	})
}

func TestOpenReturnsSameFile(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f1 := fs.Open(p, "x")
		f1.WriteAt(p, 0, []byte("abc"))
		f2 := fs.Open(p, "x")
		if f1 != f2 {
			t.Error("Open twice returned different files")
		}
		if got := f2.ReadAt(p, 0, 3); string(got) != "abc" {
			t.Errorf("got %q", got)
		}
	})
}

func TestDistinctFilesLiveInDistinctRegions(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		a := fs.Open(p, "a")
		b := fs.Open(p, "b")
		a.WriteAt(p, 0, make([]byte, 4096))
		b.WriteAt(p, 0, make([]byte, 4096))
		fs.SyncAll(p)
		// Alternating uncached reads must seek between file regions.
		fs.DropCaches(p)
		seeks0 := fs.Disk().Counters.Seeks
		a.ReadAt(p, 0, 4096)
		b.ReadAt(p, 0, 4096)
		if fs.Disk().Counters.Seeks-seeks0 < 2 {
			t.Error("cross-file access should seek")
		}
	})
}

func TestByteRangeLockBlocksOverlap(t *testing.T) {
	eng, fs := newFS(t)
	var order []string
	eng.Go("a", func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.Lock(p, 0, 100)
		order = append(order, "a-locked")
		p.Sleep(100000)
		f.Unlock(p, 0, 100)
	})
	eng.Go("b", func(p *sim.Proc) {
		p.Sleep(1000)
		f := fs.Open(p, "f")
		f.Lock(p, 50, 100) // overlaps
		order = append(order, "b-locked")
		f.Unlock(p, 50, 100)
	})
	eng.Go("c", func(p *sim.Proc) {
		p.Sleep(1000)
		f := fs.Open(p, "f")
		f.Lock(p, 500, 100) // disjoint: must not block
		order = append(order, "c-locked")
		f.Unlock(p, 500, 100)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a-locked" || order[1] != "c-locked" || order[2] != "b-locked" {
		t.Errorf("order = %v, want [a-locked c-locked b-locked]", order)
	}
}

func TestCountersTrackCalls(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, []byte("abc"))
		f.ReadAt(p, 0, 3)
		f.ReadAt(p, 0, 3)
		f.Sync(p)
	})
	c := fs.Counters
	if c.OpenCalls != 1 || c.WriteCalls != 1 || c.ReadCalls != 2 || c.SyncCalls != 1 {
		t.Errorf("counters = %+v", c)
	}
}

// TestSyncAllocFree: an fsync of a file with runs of dirty blocks collects
// them in the cache's own flush list, sorts it in place and writes the
// runs; SyncAll, which DropCaches runs, lists the files in the file
// system's own slice. In steady state neither allocates.
func TestSyncAllocFree(t *testing.T) {
	eng, fs := newFS(t)
	block := make([]byte, 4<<10)
	var f, g *File
	simtest.AllocFree(t, eng, "sync", func(p *sim.Proc) {
		if f == nil {
			f, g = fs.Open(p, "dirty"), fs.Open(p, "other")
		}
		// Three runs, dirtied out of order.
		for _, blk := range []int64{40, 7, 8, 9, 41, 100, 6} {
			f.WriteAt(p, blk*int64(len(block)), block)
		}
		f.Sync(p)
		g.WriteAt(p, 0, block)
		fs.SyncAll(p)
	})
}

// TestCreateRemoveAllocFree: a scratch file's life as an I/O daemon sees it
// in the ledger's rounds — created, written over several extents, synced
// and removed, under alternating names — allocates nothing once the first
// pass has made the record, its lock table and its extents: the next file
// takes all three from the removed one.
func TestCreateRemoveAllocFree(t *testing.T) {
	eng, fs := newFS(t)
	data := make([]byte, 300<<10)
	names := [2]string{"f000001", "f000002"}
	step := 0
	simtest.AllocFree(t, eng, "create/remove", func(p *sim.Proc) {
		name := names[step%2]
		step++
		f := fs.Open(p, name)
		f.WriteAt(p, 4<<10, data)
		f.Sync(p)
		if !fs.Remove(p, name) {
			t.Errorf("%s: not there to remove", name)
		}
	})
}

// TestLoanAllocFree: an I/O daemon's gathered read in steady state — a loan
// of strided pieces from the pool, lent to a staging mapping, landed in a
// client's space straight out of the extents, a write that settles another
// loan, and the releases — allocates nothing.
func TestLoanAllocFree(t *testing.T) {
	const pieces, piece, stride = 16, 2 << 10, 3 << 10
	eng, fs := newFS(t)
	iod, client := mem.NewAddrSpace("iod"), mem.NewAddrSpace("client")
	staging := iod.Malloc(pieces * piece)
	dst := client.Malloc(pieces * piece)
	storage := make([]byte, pieces*piece)
	block := make([]byte, piece)
	accs := make([]Piece, pieces)
	for i := range accs {
		accs[i] = Piece{Off: int64(i * stride), Len: piece, Pos: int64((pieces - 1 - i) * piece)}
	}
	var f *File
	simtest.AllocFree(t, eng, "loan", func(p *sim.Proc) {
		if f == nil {
			f = fs.Open(p, "lent")
			f.WriteAt(p, 0, make([]byte, pieces*stride))
			sim.Must(client.Write(dst, storage)) // backs the client's mapping
		}
		l := f.Lend(storage)
		f.ReadPieces(p, 0, pieces*stride, accs, l)
		iod.Exchange(staging, storage)
		iod.Lend(staging, l)
		sim.Must(client.CopyFrom(dst, iod, staging, pieces*piece))
		iod.Exchange(staging, nil)

		settled := f.Lend(storage)
		f.ReadPieces(p, 0, pieces*stride, accs, settled)
		f.WriteAt(p, stride, block)
		settled.Release()
	})
	if out := fs.loans.Out(); out != 0 {
		t.Errorf("%d loans not released", out)
	}
}

func TestPropertySparseWriteReadEquivalence(t *testing.T) {
	// Model check: the file behaves like a flat byte array with zeros in
	// the holes, regardless of write order and caching.
	type op struct {
		Off  uint32
		Data []byte
	}
	eng, fs := newFS(t)
	f := func(ops []op, dropAfter uint8) bool {
		ok := true
		eng2 := sim.NewEngine()
		d := disk.New(eng2, "d", disk.DefaultParams())
		fs2 := New(eng2, d, DefaultParams())
		eng2.Go("t", func(p *sim.Proc) {
			file := fs2.Open(p, "f")
			model := make(map[int64]byte)
			var size int64
			for i, o := range ops {
				off := int64(o.Off % 200000)
				if len(o.Data) > 4096 {
					o.Data = o.Data[:4096]
				}
				file.WriteAt(p, off, o.Data)
				for j, b := range o.Data {
					model[off+int64(j)] = b
				}
				// A zero-length write does not extend the file (POSIX).
				if end := off + int64(len(o.Data)); len(o.Data) > 0 && end > size {
					size = end
				}
				if i == int(dropAfter)%8 {
					fs2.DropCaches(p)
				}
			}
			got := file.ReadAt(p, 0, size)
			if int64(len(got)) != size {
				ok = false
				return
			}
			for i := int64(0); i < size; i++ {
				if got[i] != model[i] {
					ok = false
					return
				}
			}
		})
		if err := eng2.Run(); err != nil {
			return false
		}
		return ok
	}
	_ = eng
	_ = fs
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
