package bench

import (
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/workload"
)

// geometryCell performs the runs on one point of the cell-geometry grid —
// I/O server count x client count x stripe size (0 = the default) — with
// the engine partitioned into shards; output is byte-identical for every
// shard count. Each cell builds its own cluster, so grid points share
// nothing and the sweeps below parallelize freely.
func geometryCell(iods, clients int, stripe int64, shards int, runs ...listIO) []ioResult {
	cfg := pvfs.DefaultConfig()
	if stripe != 0 {
		cfg.StripeSize = stripe
	}
	cfg.Shards = shards
	return bed{cfg, iods, clients}.run(runs...)
}

// scale sweeps the cell geometry on a strided list-I/O workload — every
// rank writes, syncs, then reads back 64 interleaved 8 KiB segments — and
// reports aggregate bandwidth, with knee detection per (stripe, clients)
// series: the first server count whose doubling stopped paying (under 15%
// aggregate gain). The knee is the capacity-planning number the paper's
// scaling figures imply but never tabulate: how many iods a cell of a
// given client population can actually use.
var scale = Experiment{
	ID:     "scale",
	Title:  "Cell scaling: iods x clients x stripe with knee detection",
	table:  "Cell scaling: aggregate list-I/O bandwidth by iods x clients x stripe (MB/s)",
	header: []string{"stripe_kb", "clients", "iods", "write_MBs", "read_MBs"},
	sweep: func(o RunOpts) []group {
		iods := pick(o.Short, []int{1, 2, 4}, []int{1, 2, 4, 8})
		clients := pick(o.Short, []int{4}, []int{2, 4, 8})
		stripes := pick(o.Short, []int64{64 << 10}, []int64{16 << 10, 64 << 10, 256 << 10})
		return grid(cross(stripes, clients), iods,
			func(series pair[int64, int], ns int) ioResult {
				return geometryCell(ns, series.b, series.a, o.Shards,
					listIO{file: "scale-grid", layout: interleaved(64, 8<<10), opts: &pvfs.OpOptions{}, sync: true, read: readPacked})[0]
			},
			func(t *Table, series pair[int64, int], res []ioResult) {
				st, nc := series.a>>10, series.b
				aggs := make([]float64, len(res))
				for i, r := range res {
					t.Add(st, nc, iods[i], r.w, r.r)
					aggs[i] = r.w + r.r
				}
				if k := kneeIndex(aggs, 1.15); k >= 0 {
					t.Note("knee s=%dk c=%d: under 15%% aggregate gain at %d iods", st, nc, iods[k])
				} else {
					t.Note("knee s=%dk c=%d: none up to %d iods", st, nc, iods[len(iods)-1])
				}
			})
	},
}

// extraScaling measures aggregate bandwidth as the server count grows —
// the striping-scalability property PVFS exists for (the paper's prior work
// [31] evaluates it on the same testbed): the same geometry cell as scale,
// swept along the iods axis only, running 8 MB-per-rank contiguous I/O at
// disjoint offsets and then block-column list I/O on the one cluster.
var extraScaling = Experiment{
	ID:     "extra-scaling",
	Title:  "Bandwidth scaling with server count",
	table:  "Aggregate bandwidth vs. I/O server count (4 clients, MB/s)",
	header: []string{"servers", "contig_write", "contig_read", "list_write", "list_read"},
	notes:  []string{"striping should scale bandwidth until the clients' links saturate"},
	sweep: func(o RunOpts) []group {
		const per = 8 << 20
		disjoint := func(rank, _ int) workload.Pattern {
			return workload.Pattern{Mem: mpiio.Contig(per), File: mpiio.Contig(per).Shift(int64(rank) * per)}
		}
		return each(pick(o.Short, []int{1, 4}, []int{1, 2, 4, 8}),
			func(ns int) []ioResult {
				return geometryCell(ns, 4, 0, o.Shards,
					listIO{file: "scale", layout: disjoint, opts: &pvfs.OpOptions{}, read: readFresh},
					listIO{file: "scale-list", layout: blockColumn(1024), opts: &pvfs.OpOptions{}, read: readFresh})
			},
			func(t *Table, ns int, res []ioResult) {
				contig, list := res[0], res[1]
				t.Add(ns, contig.w, contig.r, list.w, list.r)
			})
	},
}
