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

// TestCreateRemoveAllocFree holds the blockcol-write round's shape to the
// steady-state contract: four ranks open a new file, list-write their block
// column and sync it, and after a barrier one rank removes the file. The
// open's PVFS handle lives in its mpiio.File, and each I/O server names the
// new stripe file from the slot the last remove freed. So all a warm step
// allocates is per rank the mpiio.File its open returns, and no pool
// misses. The count is exact: an open has nothing to close it, so its
// record cannot be recycled.
func TestCreateRemoveAllocFree(t *testing.T) {
	const (
		ranks = 4
		n     = 256 // a 256 kB file, one 64 kB column a rank
	)
	f := newFixture(pvfs.DefaultConfig(), 4, ranks)
	defer f.close()
	bufs := make([]buffer, ranks)
	for r, cl := range f.c.Clients {
		bufs[r] = materialize(cl, workload.BlockColumn(n, ranks, r, 4), byte(r))
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
			file := mpiio.Open(p, cl, rank, "bc")
			sim.Must(file.Write(p, mpiio.ListIO, b.Segs, b.Accs))
			file.Sync(p)
			rank.Barrier(p)
			if rank.ID() == 0 {
				mpiio.Delete(p, cl, "bc")
			}
		})
		for i, cl := range f.c.Clients {
			end := cl.Space().Malloc(mem.PageSize)
			cl.Space().Free(mem.Extent{Addr: marks[i], Len: int64(end-marks[i]) + mem.PageSize})
		}
	}
	step() // pools, free lists, the iods' free names and the pattern cache warm up
	step()
	fresh0 := f.HostCost().Fresh
	reqs0 := f.c.Acct().IOReqs()
	mallocs := testing.AllocsPerRun(4, step)
	fresh := f.HostCost().Fresh - fresh0
	reqs := f.c.Acct().IOReqs() - reqs0
	idle = true
	mallocs -= testing.AllocsPerRun(4, step)
	t.Logf("%.0f mallocs a step, %d pool misses and %d I/O requests over 5 steps", mallocs, fresh, reqs)
	if reqs == 0 {
		t.Fatal("the steps sent no I/O request")
	}
	if fresh != 0 {
		t.Errorf("%d pool misses in 5 steps, want 0", fresh)
	}
	if raceEnabled {
		return // the detector's runtime allocates too
	}
	if mallocs != ranks {
		t.Errorf("%.0f mallocs a step, want %d: one mpiio.File an open", mallocs, ranks)
	}
}
