package bench

import (
	"fmt"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/ogr"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// ablationSGE studies the sensitivity of the RDMA Gather/Scatter scheme to
// the per-work-request scatter/gather limit (InfiniBand's is 64). It reruns
// the Figure 3 gather,one-reg measurement with different limits.
var ablationSGE = Experiment{
	ID:     "ablation-sge",
	Title:  "Gather/scatter bandwidth vs. SGE limit (2048x2048 array)",
	header: []string{"max_sge", "gather_onereg_MB_s"},
	notes:  []string{"smaller limits split the transfer into more work requests, each paying its own overhead"},
	sweep: func(o RunOpts) []group {
		n := pick[int64](o.Short, 1024, 2048)
		return each([]int{4, 16, 64, 256},
			func(limit int) float64 {
				params := ib.DefaultParams()
				params.MaxSGE = limit
				return fig3RowOn(n, params, simnet.DefaultParams())["gatherone"]
			},
			func(t *Table, limit int, mbs float64) { t.Add(limit, mbs) })
	},
}

// ablationHybrid sweeps the pack/gather crossover threshold of the hybrid
// transfer policy for small and large list operations: 128-segment
// interleaved writes with the staging-buffer size as the threshold.
var ablationHybrid = Experiment{
	ID:     "ablation-hybrid",
	Title:  "Hybrid crossover threshold sweep, 128-segment write bandwidth (MB/s)",
	header: []string{"threshold_kB", "segs_512B", "segs_8kB"},
	notes:  []string{"the paper picks the 64 kB stripe size; small ops prefer pack, large ops gather"},
	sweep: func(o RunOpts) []group {
		return grid(pick(o.Short, []int64{16 << 10, 64 << 10, 256 << 10}, []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}),
			[]int64{512, 8192},
			func(threshold, segSize int64) ioResult {
				b := paperBed()
				b.cfg.FastBufSize = threshold
				return b.one(listIO{file: "hyb", layout: interleaved(128, segSize), opts: &pvfs.OpOptions{Reg: pvfs.RegOGR}})
			},
			func(t *Table, threshold int64, res []ioResult) { t.Add(line(res, wMBs, threshold>>10)...) })
	},
}

// sieveModes are the forced-off, forced-on and cost-model columns of the
// two ADS decision-quality experiments.
var sieveModes = []sieve.Mode{sieve.Never, sieve.Always, sieve.Auto}

// sieveModeWrite is the synced block-column write with a fixed server
// sieving mode on the given bed.
func sieveModeWrite(b bed, file string, n int64, mode sieve.Mode) ioResult {
	return b.one(listIO{file: file, layout: blockColumn(n), opts: &pvfs.OpOptions{Sieve: mode}, sync: true})
}

// ablationADSModel compares the ADS cost-model decision against sieving
// forced always-on and always-off, for a dense small-access pattern (where
// sieving wins) and a sparse large-access pattern (where it loses).
var ablationADSModel = Experiment{
	ID:     "ablation-adsmodel",
	Title:  "ADS decision quality: block-column write bandwidth (MB/s)",
	header: []string{"array", "never", "always", "model(auto)"},
	notes:  []string{"the model should track the better of always/never in each regime"},
	sweep: func(o RunOpts) []group {
		return grid(pick(o.Short, []int64{512}, []int64{512, 4096}), sieveModes,
			func(n int64, mode sieve.Mode) ioResult { return sieveModeWrite(paperBed(), "bc", n, mode) },
			func(t *Table, n int64, res []ioResult) { t.Add(line(res, wMBs, fmt.Sprintf("%d", n))...) })
	},
}

// ogrLayout is one buffer placement of the grouping ablation.
type ogrLayout struct {
	name string
	gap  int64 // allocated pages between buffer groups
}

// ablationOGRGroup compares the registration strategies on the raw
// registration path: per-buffer, whole-span, and the cost-model grouping,
// over a single-array layout and a multi-array layout with allocated gaps.
var ablationOGRGroup = Experiment{
	ID:     "ablation-ogrgroup",
	Title:  "OGR grouping strategies: registration time (µs) for 1024 x 4kB buffers",
	header: []string{"layout", "individual", "whole_span", "cost_model"},
	notes:  []string{"whole-span registers gap pages too; the cost model splits only when the gap outweighs an extra operation"},
	sweep: func(o RunOpts) []group {
		nseg := pick(o.Short, 256, 1024)
		return grid([]ogrLayout{{"one array", 0}, {"8 arrays, big gaps", 64}},
			[]string{"indiv", "span", "model"},
			func(l ogrLayout, strat string) float64 { return ogrStrategyTime(nseg, l.gap, strat) },
			func(t *Table, l ogrLayout, res []float64) {
				t.Add(line(res, func(us float64) any { return us }, l.name)...)
			})
	},
}

func ogrStrategyTime(nseg int, gapPages int64, strat string) float64 {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	h := ib.NewHCA(net.AddNode("n"), mem.NewAddrSpace("n"), ib.DefaultParams())
	var exts []mem.Extent
	perArray := nseg / 8
	for i := 0; i < nseg; i++ {
		if gapPages > 0 && i > 0 && i%perArray == 0 {
			h.Space().Malloc(gapPages * mem.PageSize) // allocated spacer
		}
		addr := h.Space().Malloc(4096)
		exts = append(exts, mem.Extent{Addr: addr, Len: 4096})
	}
	cfg := ogr.DefaultConfig()
	switch strat {
	case "indiv":
		cfg.DisableGrouping = true
	case "span":
		cfg.WholeSpan = true
	}
	var elapsed sim.Duration
	eng.Go("app", func(p *sim.Proc) {
		t0 := p.Now()
		res, err := ogr.RegisterBuffers(p, ogr.Direct{HCA: h}, h.Space(), exts, cfg)
		sim.Must(err)
		sim.Must(ogr.Release(p, ogr.Direct{HCA: h}, res))
		elapsed = p.Now().Sub(t0)
	})
	runAndRetire(eng, h.Space())
	return float64(elapsed.Nanoseconds()) / 1000
}
