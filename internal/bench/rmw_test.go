package bench

import (
	"bytes"
	"fmt"
	"testing"

	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/workload"
)

// TestIntersectingSieveWindows is the first hazard of the cluster-level
// reference model: writers whose read-modify-write windows intersect. Four
// ranks write an interleaved block-column view — 256 rows of 1 kB, each rank
// a 256-byte column of every row — by every write method. With list I/O and
// ADS every server sieves each rank's 64 pieces in a window that spans the
// other ranks' pieces too; plain list I/O writes the pieces alone; data
// sieving writes as Multiple I/O (ROMIO's client-side sieving only reads),
// one request a piece; collective I/O exchanges the pieces and writes
// whole-file-domain runs. The file, synced and read back contiguously, must
// equal a flat image with every rank's stream written into its view,
// whatever order the windows ran in: a window may rewrite the other ranks'
// bytes only with what the file holds. At one and four shards, fault-free
// and under the fault storm, which also retries the iods' rendezvous and
// hands their staging storage back and forth mid-failure.
func TestIntersectingSieveWindows(t *testing.T) {
	const (
		n     = 256 // rows and columns of 4-byte elements
		elem  = 4
		ranks = 4
		colw  = n / ranks * elem
		total = n * n * elem
	)
	for _, shards := range []int{1, 4} {
		for _, storm := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/storm=%t", shards, storm), func(t *testing.T) {
				for _, method := range []mpiio.Method{mpiio.ListIOADS, mpiio.ListIO, mpiio.DataSieving, mpiio.Collective} {
					t.Run(method.String(), func(t *testing.T) {
						cfg := pvfs.DefaultConfig()
						cfg.Shards = shards
						if storm {
							cfg.Faults = stormPlan()
						}
						f := newFixture(cfg, 4, ranks)
						defer f.close()

						// The flat image, built the way the ledger's refWrite builds it.
						img := make([]byte, total)
						bufs := make([]buffer, ranks)
						for r, cl := range f.c.Clients {
							bufs[r] = materialize(cl, workload.BlockColumn(n, ranks, r, elem), byte(r+1))
							stream, err := cl.Space().Read(bufs[r].Base, n*colw)
							if err != nil {
								t.Fatal(err)
							}
							for _, a := range bufs[r].Accs {
								copy(img[a.Off:a.Off+a.Len], stream[:a.Len])
								stream = stream[a.Len:]
							}
						}

						f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
							r := rank.ID()
							file := mpiio.Open(p, cl, rank, "rmw")
							file.SetView(mpiio.View{Disp: int64(r) * colw, Pattern: mpiio.Contig(colw), Extent: n * elem})
							sim.Must(file.WriteView(p, method, bufs[r].Segs, 0, n*colw))
							file.Sync(p)
						})
						var sieved int64
						for _, s := range f.c.Servers {
							sieved += s.SieveStats.SievedWins
						}
						if sieved == 0 && method == mpiio.ListIOADS {
							t.Fatal("no server sieved a window: the hazard was not exercised")
						}

						got := make([]byte, total)
						f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
							if rank.ID() != 0 {
								return
							}
							fh := cl.Open(p, "rmw")
							dst := cl.Space().Malloc(total)
							sim.Must(fh.Read(p, dst, total, 0, pvfs.OpOptions{}))
							back, err := cl.Space().Read(dst, total)
							sim.Must(err)
							copy(got, back)
						})
						if !bytes.Equal(got, img) {
							i := 0
							for got[i] == img[i] {
								i++
							}
							t.Fatalf("%d sieved windows; read-back differs from the image first at byte %d (row %d, rank %d's column): %#x, want %#x",
								sieved, i, i/(n*elem), i%(n*elem)/colw, got[i], img[i])
						}
					})
				}
			})
		}
	}
}
