package bench

import (
	"fmt"

	"pvfsib/internal/ib"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/workload"
)

// fabric is one network generation of the network ablation.
type fabric struct {
	name string
	cfg  func() pvfs.Config
}

var fabrics = []fabric{
	{"InfiniBand (827MB/s)", pvfs.DefaultConfig},
	{"conventional (80MB/s)", pvfs.ConventionalConfig},
}

// ablationNetwork reproduces the paper's Section 1 motivation: the choice
// of noncontiguous transmission scheme matters on a fast (InfiniBand)
// network but barely registers on a conventional one, where the wire
// itself is the bottleneck. It reruns the Figure 3 subarray transfer (one
// 1024x1024-int subarray, i.e. 512 rows) on both fabrics and reports the
// spread between the best and worst scheme, and additionally compares the
// full PVFS stacks (verbs + hybrid vs. stream sockets) on steady-state
// 128 x 8 kB list writes.
var ablationNetwork = Experiment{
	ID:     "ablation-network",
	Title:  "Transmission schemes vs. network generation (MB/s)",
	header: []string{"network", "multiple", "pack", "gather_onereg", "best/worst"},
	notes:  []string{"scheme spread is large on InfiniBand and shrinks toward 1 on the conventional wire"},
	sweep: func(o RunOpts) []group {
		n := pick[int64](o.Short, 512, 1024)
		schemes := each(fabrics,
			func(fab fabric) map[string]float64 { return fig3RowOn(n, ib.DefaultParams(), fab.cfg().Net) },
			func(t *Table, fab fabric, r map[string]float64) {
				lo := min(r["multiple"], r["packnoreg"], r["gatherone"])
				hi := max(r["multiple"], r["packnoreg"], r["gatherone"])
				t.Add(fab.name, r["multiple"], r["packnoreg"], r["gatherone"], fmt.Sprintf("%.2f", hi/lo))
			})
		// Full-stack comparison: the paper's design vs. the TCP-era PVFS.
		stacks := each([]fabric{{"PVFS verbs+hybrid", pvfs.DefaultConfig}, {"PVFS stream sockets", pvfs.ConventionalConfig}},
			func(st fabric) ioResult {
				return bed{st.cfg(), 4, 4}.one(steadyListIO("net", 8192, pvfs.Hybrid, noRead))
			},
			func(t *Table, st fabric, r ioResult) { t.Add(st.name, "", "", fmt.Sprintf("%.1f", r.w), "") })
		return append(schemes, stacks...)
	},
}

// ablationRegThrash demonstrates registration thrashing (Section 4.2: "the
// total number of buffers registered is limited ... some registered buffers
// must be deregistered, [which] may lead to registration thrashing"): with
// a small pinned-memory budget, per-buffer registration through the cache
// thrashes while OGR's single grouped region still fits. Each cell writes a
// 1024-row subarray twice through a bounded pin-down cache and reports the
// second pass's bandwidth and cache hits: a thrashing cache re-registers
// everything; a fitting one hits.
var ablationRegThrash = Experiment{
	ID:     "ablation-regthrash",
	Title:  "Registration thrashing under a pinned-memory limit (write bandwidth, MB/s)",
	header: []string{"cache_entries", "individual+cache", "ogr+cache", "ogr_hits", "indiv_hits"},
	notes:  []string{"1024 buffers per op: per-buffer caching needs 1024 entries to ever hit; OGR needs one"},
	sweep: func(o RunOpts) []group {
		const rows, rowLen = 1024, 4096
		subarray := func(int, int) workload.Pattern {
			return workload.Pattern{Mem: strided(rows, rowLen), File: mpiio.Contig(rows * rowLen)}
		}
		return grid(pick(o.Short, []int{8, 2048}, []int{8, 64, 2048}), []bool{true, false},
			func(entries int, individual bool) ioResult {
				cfg := pvfs.DefaultConfig()
				cfg.RegCacheEntries = entries
				cfg.OGR.DisableGrouping = individual
				return bed{cfg, 4, 1}.one(listIO{file: "thrash", layout: subarray, warm: "thrash",
					opts: &pvfs.OpOptions{Transfer: pvfs.ForceGather, Reg: pvfs.RegCached, Sieve: sieve.Never}})
			},
			func(t *Table, entries int, res []ioResult) {
				indiv, ogr := res[0], res[1]
				t.Add(entries, indiv.w, ogr.w, ogr.snap.RegCacheHits, indiv.snap.RegCacheHits)
			})
	},
}
