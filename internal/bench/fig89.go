package bench

import (
	"pvfsib/internal/mpiio"
	"pvfsib/internal/workload"
)

// tileSweep is the shared op x method decomposition of Figures 8 and 9:
// mpi-tile-io (2x2 display of 1024x768 24-bit tiles, a 9 MB file), a write
// row then a read row.
func tileSweep(diskEffects bool) func(o RunOpts) []group {
	tiles := func(rank, _ int) workload.Pattern { return workload.PaperTileSpec().Tile(rank) }
	return func(RunOpts) []group {
		return grid([]string{"write", "read"}, methodList,
			func(op string, m mpiio.Method) ioResult {
				run := listIO{sync: diskEffects}
				if op == "read" {
					run = populatedRead(diskEffects)
				}
				run.file, run.layout, run.method = "tiles", tiles, m
				return paperBed().one(run)
			},
			func(t *Table, op string, res []ioResult) {
				t.Add(line(res, pick(op == "read", rMBs, wMBs), op)...)
			})
	}
}

// fig8 reproduces the paper's Figure 8: tiled I/O without disk effects —
// writes are not synced and reads come from the servers' file caches.
var fig8 = Experiment{
	ID:     "fig8",
	Title:  "Tiled I/O without disk effects, bandwidth, MB/s (Figure 8)",
	header: []string{"op", "multiple", "datasieving", "listio", "listio+ads"},
	paper: []cite{
		{row: "write", col: "listio+ads", over: "multiple", paper: 5.7, claim: "List+ADS far ahead of Multiple I/O"},
		{row: "read", col: "listio+ads", over: "multiple", paper: 8.8, claim: "List+ADS far ahead of Multiple I/O"},
		{row: "write", col: "listio+ads", over: "listio", paper: 1.084, claim: "List+ADS ahead of plain list I/O"},
		{row: "read", col: "listio+ads", over: "listio", paper: 1.45, claim: "List+ADS ahead of plain list I/O"},
	},
	sweep: tileSweep(false),
}

// fig9 reproduces Figure 9: the same accesses with disk effects — writes
// synced to disk, reads from dropped caches.
var fig9 = Experiment{
	ID:     "fig9",
	Title:  "Tiled I/O with disk effects, bandwidth, MB/s (Figure 9)",
	header: []string{"op", "multiple", "datasieving", "listio", "listio+ads"},
	paper:  []cite{{claim: "ADS still wins writes; for reads ROMIO DS overtakes when the disk dominates"}},
	sweep:  tileSweep(true),
}
