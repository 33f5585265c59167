package bench

import (
	"testing"

	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/workload"
)

// TestCollectiveReopenAllocFree holds a benchmark round's shape to the
// steady-state contract: four ranks open their file anew, write a BTIO dump
// through two-phase collective I/O and read it back, and the round frees
// every client mapping it made, as the ledger's rounds do. The two-phase
// descriptor scratch and the exchange messages belong to the client, not
// the File, the open request and reply ride pooled records, and the access
// shape comes from the flatten cache, so all a step allocates is per rank
// the mpiio.File and pvfs.FileHandle records an open returns, and the message
// bodies the extents' Allgather misses in its root's pool: the root sends
// n(n-1) copies and gets n-1 bodies back, so (n-1)² bodies a call, which the
// pool's host cost records as fresh (their 64 bytes each as cleared). The
// count is exact: an open has nothing to close it, so none of its records
// can be recycled.
func TestCollectiveReopenAllocFree(t *testing.T) {
	const (
		ranks    = 4
		opens    = ranks * 2                     // mpiio.File, pvfs.FileHandle
		gathered = 2 * (ranks - 1) * (ranks - 1) // one Allgather per collective call
	)
	spec := workload.BTIOSpec{Grid: 16, NProcs: ranks, Dumps: 2}
	f := newFixture(pvfs.DefaultConfig(), 4, ranks)
	defer f.close()
	bufs := make([]buffer, ranks)
	for r, cl := range f.c.Clients {
		bufs[r] = materialize(cl, spec.Dump(r, 1), byte(r))
	}
	idle := false
	var marks [ranks]mem.Addr
	step := func() {
		for i, cl := range f.c.Clients {
			marks[i] = cl.Space().Malloc(mem.PageSize)
		}
		f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
			if idle {
				return
			}
			b := bufs[rank.ID()]
			file := mpiio.Open(p, cl, rank, "reopened")
			sim.Must(file.Write(p, mpiio.Collective, b.Segs, spec.Dump(rank.ID(), 1).File))
			sim.Must(file.Read(p, mpiio.Collective, b.Segs, spec.Dump(rank.ID(), 1).File))
		})
		for i, cl := range f.c.Clients {
			end := cl.Space().Malloc(mem.PageSize)
			cl.Space().Free(mem.Extent{Addr: marks[i], Len: int64(end-marks[i]) + mem.PageSize})
		}
	}
	step() // pools, free lists, the client state and the pattern cache warm up
	step()
	fresh0 := f.HostCost().Fresh
	mallocs := testing.AllocsPerRun(4, step)
	fresh := f.HostCost().Fresh - fresh0
	idle = true
	mallocs -= testing.AllocsPerRun(4, step)
	t.Logf("%.0f mallocs a step, %d of them pool misses over 5 steps", mallocs, fresh)
	if fresh != 5*gathered {
		t.Errorf("%d pool misses in 5 steps, want %d", fresh, 5*gathered)
	}
	if raceEnabled {
		return // the detector's runtime allocates too
	}
	if want := float64(opens + gathered); mallocs != want {
		t.Errorf("%.0f mallocs a step, want %.0f: %d for the opens, %d pool misses", mallocs, want, opens, gathered)
	}
	if err := workload.VerifyPatternCache(); err != nil {
		t.Error(err)
	}
}
