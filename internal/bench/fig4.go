package bench

import (
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
)

// fig4 reproduces the paper's Figure 4: PVFS list I/O bandwidth with the
// Pack/Unpack scheme, the RDMA Gather/Scatter scheme, and the hybrid used
// in the final design. Four clients and four servers; each operation moves
// 128 noncontiguous segments whose size sweeps 128 B .. 8 kB. Cache effects
// are left in (the paper's first experiment set stresses the network). One
// cell per (segment size, scheme).
var fig4 = Experiment{
	ID:     "fig4",
	Title:  "List I/O transfer schemes (Figure 4)",
	table:  "List I/O transfer schemes, 128 segments, aggregate bandwidth (MB/s)",
	header: []string{"seg_bytes", "op", "pack", "gather", "hybrid"},
	notes:  []string{"paper shape: pack wins small totals, gather wins large, hybrid tracks the winner (crossover at the 64kB stripe size)"},
	sweep: func(o RunOpts) []group {
		return grid(pick(o.Short, []int64{128, 2048, 8192}, []int64{128, 256, 512, 1024, 2048, 4096, 8192}),
			[]pvfs.Transfer{pvfs.ForcePack, pvfs.ForceGather, pvfs.Hybrid},
			func(segSize int64, tr pvfs.Transfer) ioResult {
				return paperBed().one(steadyListIO("fig4", segSize, tr, readSame))
			},
			func(t *Table, segSize int64, res []ioResult) {
				t.Add(line(res, wMBs, segSize, "write")...)
				t.Add(line(res, rMBs, segSize, "read")...)
			})
	},
}

// steadyListIO is list I/O on 128 interleaved segments per rank in steady
// state, as a looped benchmark measures it: registration goes through the
// pin-down cache, one unmeasured warm-up write, then several measured
// iterations.
func steadyListIO(file string, segSize int64, tr pvfs.Transfer, read readBack) listIO {
	return listIO{
		file: file, layout: interleaved(128, segSize),
		opts: &pvfs.OpOptions{Transfer: tr, Reg: pvfs.RegCached, Sieve: sieve.Never},
		warm: file, iters: 3, read: read,
	}
}
