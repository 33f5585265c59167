package bench

import (
	"fmt"

	"pvfsib/internal/mpiio"
	"pvfsib/internal/workload"
)

// blockColumn is the one-dimensional block-column file view of Figures
// 5-7: each rank accesses 1 unit out of every `ranks` in an n x n int array.
func blockColumn(n int64) layout {
	return func(rank, ranks int) workload.Pattern { return workload.BlockColumn(n, ranks, rank, 4) }
}

// variant is one value of a figure's second row axis: its label and the
// run it selects.
type variant struct {
	name string
	run  listIO
}

// blockColumnSweep is the shared (size x variant) x method decomposition of
// Figures 6 and 7; val picks the bandwidth the figure plots.
func blockColumnSweep(variants []variant, val func(ioResult) any) func(o RunOpts) []group {
	return func(o RunOpts) []group {
		sizes := pick(o.Short, []int64{512, 1024}, []int64{512, 1024, 2048, 4096, 8192})
		return grid(cross(sizes, variants), methodList,
			func(row pair[int64, variant], m mpiio.Method) ioResult {
				run := row.b.run
				run.file, run.layout, run.method = "bc", blockColumn(row.a), m
				return paperBed().one(run)
			},
			func(t *Table, row pair[int64, variant], res []ioResult) {
				t.Add(line(res, val, fmt.Sprintf("%d", row.a), row.b.name)...)
			})
	}
}

// fig6 reproduces the paper's Figure 6: writes in the block-column file
// view, for array sizes 512..8192, with the four access methods, with and
// without sync. ROMIO Data Sieving degenerates to Multiple I/O for writes.
var fig6 = Experiment{
	ID:     "fig6",
	Title:  "Block-column writes (Figure 6)",
	table:  "Block-column WRITE bandwidth (MB/s)",
	header: []string{"array", "sync", "multiple", "datasieving", "listio", "listio+ads"},
	notes:  []string{"paper shape: list I/O beats ROMIO DS by 3.5-12x; ADS helps small arrays and merges with plain list I/O at 2048+"},
	sweep:  blockColumnSweep([]variant{{"nosync", listIO{}}, {"sync", listIO{sync: true}}}, wMBs),
}

// fig7 reproduces Figure 7: block-column reads, cached and uncached. The
// file is produced with plain list I/O first; for the uncached case it is
// synced and every server's page cache dropped before the measured read.
var fig7 = Experiment{
	ID:     "fig7",
	Title:  "Block-column reads (Figure 7)",
	table:  "Block-column READ bandwidth (MB/s)",
	header: []string{"array", "cache", "multiple", "datasieving", "listio", "listio+ads"},
	notes:  []string{"paper shape: cached, ADS wins small arrays; uncached, DS is competitive until transfer overheads catch up at large sizes"},
	sweep:  blockColumnSweep([]variant{{"cached", populatedRead(false)}, {"uncached", populatedRead(true)}}, rMBs),
}

// populatedRead is a read of a file populated beforehand, from the servers'
// page caches or (uncached) from disk.
func populatedRead(uncached bool) listIO {
	return listIO{populate: true, read: readFresh, sync: uncached, dropCaches: uncached}
}
