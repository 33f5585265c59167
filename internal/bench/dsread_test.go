package bench

import (
	"bytes"
	"fmt"
	"testing"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/workload"
)

// dsEdge is the edge of the int array the data-sieving tests read by
// columns, the Figure 7 shape over four ranks: 1024 rows of 1 kB per
// column, whose hull is one 4 MB window.
const dsEdge = 1024

// dsImage is the array's file image: no two rows alike.
func dsImage() []byte {
	img := make([]byte, dsEdge*dsEdge*4)
	for i := range img {
		img[i] = byte(i*7+i/4093) | 1
	}
	return img
}

// dsColumn is rank's column of the array: its file regions, a buffer for
// it in cl's space, and the bytes it holds in img.
func dsColumn(cl *pvfs.Client, img []byte, rank int) (segs []ib.SGE, accs []pvfs.OffLen, want []byte) {
	pat := workload.BlockColumn(dsEdge, 4, rank, 4)
	segs = []ib.SGE{{Addr: cl.Space().Malloc(pat.Bytes()), Len: pat.Bytes()}}
	for _, a := range pat.File {
		want = append(want, img[a.Off:a.End()]...)
	}
	return segs, pat.File, want
}

// writeImage has cl write img as the file name, contiguously from offset
// 0, and frees the buffer it wrote from.
func writeImage(p *sim.Proc, cl *pvfs.Client, name string, img []byte) {
	n := int64(len(img))
	src := cl.Space().Malloc(n)
	sim.Must(cl.Space().Write(src, img))
	sim.Must(cl.Open(p, name).Write(p, src, n, 0, pvfs.OpOptions{}))
	cl.Space().Free(mem.Extent{Addr: src, Len: n})
}

// loansOut is how many loans the cluster's file systems have lent and not
// had back.
func loansOut(c *pvfs.Cluster) (out int64) {
	for _, s := range c.Servers {
		s.FS().Census(func(_ string, n int64) { out += n })
	}
	return out
}

// columnOf returns the n bytes at segs[0] of cl's space.
func columnOf(t *testing.T, cl *pvfs.Client, segs []ib.SGE) []byte {
	t.Helper()
	got, err := cl.Space().Read(segs[0].Addr, segs[0].Len)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// firstByteDiff returns the index of the first byte in which a and b differ,
// -1 if none does.
func firstByteDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestDataSievingReadEventBudget holds a data-sieving read to one host copy
// of each byte it returns: one rank's column of the block-column array,
// read through MPI-IO from the paper's four servers at one engine shard in
// steady state. The 4 MB window moves on the virtual clock, but on the host
// each window range lands as a loan of the iod's file, the extraction
// copies each wanted byte once, from the file's extents into the user's
// buffer, and the call ends with the window's loans dropped. The read
// allocates nothing: the forked loans, the window's range records and the
// loans' piece slices are all pooled.
func TestDataSievingReadEventBudget(t *testing.T) {
	f := newFixture(pvfs.DefaultConfig(), 4, 1)
	defer f.close()
	cl := f.c.Clients[0]
	img := dsImage()
	segs, accs, want := dsColumn(cl, img, 1)
	var file *mpiio.File
	idle := false
	pass := func() {
		f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
			if file == nil {
				writeImage(p, cl, "column", img)
				file = mpiio.Open(p, cl, rank, "column")
			}
			if !idle {
				sim.Must(file.Read(p, mpiio.DataSieving, segs, accs))
			}
		})
	}
	pass() // untimed: pools, free lists and the window's storage warm up
	before := cl.Space().HostCost()
	pass()
	copied := cl.Space().HostCost().BytesCopied - before.BytesCopied
	if got := columnOf(t, cl, segs); !bytes.Equal(got, want) {
		t.Fatalf("the read got byte %d wrong", firstByteDiff(got, want))
	}
	payload := segs[0].Len
	t.Logf("%d payload bytes: the client copied %d (%.3f per payload byte)", payload, copied, float64(copied)/float64(payload))
	if copied != payload {
		t.Errorf("the client copied %d bytes for a read of %d, want exactly one copy of each", copied, payload)
	}
	if out := loansOut(f.c); out != 0 {
		t.Errorf("%d loans out after the read", out)
	}
	if raceEnabled {
		return // the detector's runtime allocates too
	}
	mallocs := testing.AllocsPerRun(4, pass)
	idle = true
	mallocs -= testing.AllocsPerRun(4, pass)
	if mallocs != 0 {
		t.Errorf("a warm data-sieving read made %.2f mallocs beyond spawning its rank, want 0", mallocs)
	}
}

// TestLentWindowOutlivesWrite: a data-sieving window's ranges owe their
// bytes to the iods' files until the call ends, so a write of the file
// must settle them into the window before it changes them. The reader
// extracts its pieces one memcpy at a time; once the first has reached its
// buffer, another client overwrites the rows the reader extracts last, and
// the reader must still get the bytes from before the write. At one and
// four engine shards (at four only the iods on the reader's shard lend,
// and the other responses are copied when they land).
func TestLentWindowOutlivesWrite(t *testing.T) { lentWindowHazard(t, false) }

// TestLentWindowOutlivesRemove is TestLentWindowOutlivesWrite with the file
// removed instead, and a new file that takes its records and extents
// written over the same rows: the file must settle the window's loans
// before its extents go.
func TestLentWindowOutlivesRemove(t *testing.T) { lentWindowHazard(t, true) }

func lentWindowHazard(t *testing.T, remove bool) {
	// The writer overwrites the last rows: 256 kB of the file, whose 64
	// pieces of the reader's column are the last it extracts.
	const rows = 64
	rowBytes := int64(dsEdge * 4)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := pvfs.DefaultConfig()
			cfg.Shards = shards
			// Eight clients over four shards: two on each.
			c := pvfs.NewCluster(sim.NewEngine(), cfg, 4, 8)
			srv := c.Servers[0].HCA().Node()
			var reader, writer *pvfs.Client
			for _, cl := range c.Clients {
				if reader == nil && cl.Node().Group().ShardIndex() == srv.Group().ShardIndex() {
					reader = cl
				} else if reader != nil && writer == nil && cl.Node().Group().ShardIndex() == reader.Node().Group().ShardIndex() {
					writer = cl
				}
			}
			if reader == nil || writer == nil {
				t.Fatal("no two clients on the iod's shard")
			}
			img := dsImage()
			segs, accs, want := dsColumn(reader, img, 1)
			// The reader's buffer starts zero and every byte of the column is
			// odd, so its first byte tells the writer the extraction began.
			sim.Must(reader.Space().Write(segs[0].Addr, make([]byte, segs[0].Len)))
			var readEnd, writeStart, writeEnd sim.Time
			c.Eng.GoOn(reader.Node().Group(), "reader", func(p *sim.Proc) {
				writeImage(p, reader, "hazard", img)
				sim.Must(mpiio.Open(p, reader, nil, "hazard").Read(p, mpiio.DataSieving, segs, accs))
				readEnd = p.Now()
			})
			c.Eng.GoOn(writer.Node().Group(), "writer", func(q *sim.Proc) {
				first := []byte{0}
				for first[0] == 0 {
					q.Sleep(sim.Duration(1000)) // a microsecond
					sim.Must(reader.Space().ReadInto(segs[0].Addr, first))
				}
				writeStart = q.Now()
				name := "hazard"
				if remove {
					writer.Remove(q, name)
					name = "fresh"
				}
				n := rows * rowBytes
				fresh := writer.Space().Malloc(n)
				sim.Must(writer.Space().Write(fresh, bytes.Repeat([]byte{0xF0}, int(n))))
				sim.Must(writer.Open(q, name).Write(q, fresh, n, (dsEdge-rows)*rowBytes, pvfs.OpOptions{}))
				writeEnd = q.Now()
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			// The written rows' pieces are extracted after the write ended.
			last := c.Cfg.IB.MemcpyTime(rowBytes/4) * rows
			if writeStart == 0 || writeEnd.Add(last) > readEnd {
				t.Fatalf("the write did not run while the reader extracted: write %v to %v, read done at %v, its last %d pieces take %v",
					writeStart, writeEnd, readEnd, rows, last)
			}
			if got := columnOf(t, reader, segs); !bytes.Equal(got, want) {
				i := firstByteDiff(got, want)
				t.Fatalf("the read got byte %d as %#x, from before the write %#x", i, got[i], want[i])
			}
			if out := loansOut(c); out != 0 {
				t.Errorf("%d loans out after the read", out)
			}
		})
	}
}

// TestDataSievingReadUnderStorm: four ranks read their columns by data
// sieving while the storm's fault plan injects completion errors and
// registration failures, cuts a link and crashes an iod, at one and four
// engine shards; every rank gets its column of the file image, and no loan
// is left out.
func TestDataSievingReadUnderStorm(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := pvfs.DefaultConfig()
			cfg.Shards = shards
			f := newFixture(cfg, 4, 4)
			defer f.close()
			img := dsImage()
			f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
				if rank.ID() == 0 {
					writeImage(p, cl, "storm", img)
				}
			})
			segs := make([][]ib.SGE, 4)
			accs := make([][]pvfs.OffLen, 4)
			want := make([][]byte, 4)
			for r, cl := range f.c.Clients {
				segs[r], accs[r], want[r] = dsColumn(cl, img, r)
			}
			inj := f.c.AttachFaults(stormPlan())
			f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
				id := rank.ID()
				sim.Must(mpiio.Open(p, cl, rank, "storm").Read(p, mpiio.DataSieving, segs[id], accs[id]))
			})
			totals := inj.Totals()
			f.c.AttachFaults(nil)
			if totals == (fault.Counters{}) {
				t.Fatal("the plan injected nothing")
			}
			for r, cl := range f.c.Clients {
				if got := columnOf(t, cl, segs[r]); !bytes.Equal(got, want[r]) {
					t.Errorf("rank %d got byte %d of its column wrong", r, firstByteDiff(got, want[r]))
				}
			}
			if out := loansOut(f.c); out != 0 {
				t.Errorf("%d loans out after the reads", out)
			}
		})
	}
}
