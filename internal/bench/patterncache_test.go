package bench

import (
	"fmt"
	"testing"

	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/workload"
)

// TestPatternCacheUnchangedByMethods: the flatten cache hands every caller
// the same region lists, so no access method may write into the lists it is
// given. Every constructor's patterns go through every method on four
// ranks — written, then read back into the same buffers — on one shard and
// on four, whose workers look patterns up concurrently, and afterwards every
// cached entry must still equal a fresh uncached build.
func TestPatternCacheUnchangedByMethods(t *testing.T) {
	const ranks = 4
	tiles := workload.TileSpec{TilesX: 2, TilesY: 2, PixelsX: 32, PixelsY: 24, Elem: 3, Overlap: 2}
	btio := workload.BTIOSpec{Grid: 16, NProcs: ranks, Dumps: 2}
	constructors := []struct {
		name string
		pat  func(rank int) workload.Pattern
	}{
		{"SubarrayWrite", func(r int) workload.Pattern { return workload.SubarrayWrite(64, 2, 2, r%2, r/2, 4) }},
		{"BlockColumn", func(r int) workload.Pattern { return workload.BlockColumn(64, ranks, r, 4) }},
		{"Tile", tiles.Tile},
		{"TileWithOverlap", tiles.TileWithOverlap},
		{"Dump", func(r int) workload.Pattern { return btio.Dump(r, 1) }},
	}
	methods := []mpiio.Method{mpiio.MultipleIO, mpiio.DataSieving, mpiio.Collective, mpiio.ListIO, mpiio.ListIOADS}
	for _, shards := range []int{1, 4} {
		cfg := pvfs.DefaultConfig()
		cfg.Shards = shards
		f := newFixture(cfg, 4, ranks)
		for _, c := range constructors {
			bufs := make([]buffer, ranks)
			for r, cl := range f.c.Clients {
				bufs[r] = materialize(cl, c.pat(r), byte(r))
			}
			for _, m := range methods {
				name := fmt.Sprintf("%s/%s/%d shards", c.name, m, shards)
				f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
					file := mpiio.Open(p, cl, rank, name)
					b, accs := bufs[rank.ID()], c.pat(rank.ID()).File
					if err := file.Write(p, m, b.Segs, accs); err != nil {
						t.Errorf("%s: rank %d: write: %v", name, rank.ID(), err)
					}
					if err := file.Read(p, m, b.Segs, accs); err != nil {
						t.Errorf("%s: rank %d: read: %v", name, rank.ID(), err)
					}
				})
			}
		}
		f.close()
	}
	if err := workload.VerifyPatternCache(); err != nil {
		t.Error(err)
	}
}
