package bench

import (
	"bytes"
	"fmt"

	"pvfsib/internal/mpi"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// cacheCase is one workload geometry: reuse rounds over a strided region
// whose file stride is density × the segment size (density 2 = 50% holes,
// 4 = 75% holes), against a cache of `pages` 8 KiB frames.
type cacheCase struct {
	reuse   int
	density int64
	pages   int
}

func (cs cacheCase) label() string {
	return fmt.Sprintf("r%d-d%d-p%d", cs.reuse, cs.density, cs.pages)
}

// cache sweeps the client-side page cache (internal/pcache) over reuse ×
// hole density × cache size, with a write-behind on/off ablation. The
// workload is the buffer cache's reason to exist: one client issuing many
// small strided operations one at a time (Unix-style call stream), repeated
// over the same region `reuse` times. Uncached, every tiny operation is one
// wire RPC; write-through caching absorbs re-reads but still pays one RPC
// per write; write-behind coalesces the writes into a few large list
// flushes as well. Every cell verifies its read-back bytes. One cell per
// (case, mode); modes share nothing, so the ablation columns come from
// independent simulations.
var cache = Experiment{
	ID:    "cache",
	Title: "Client page cache: reuse x hole density x cache size, write-behind ablation (64 x 2kB ops/round, 1 client, 4 servers)",
	header: []string{"case", "reuse", "density", "pages",
		"uncached_mbs", "wt_mbs", "wb_mbs", "uncached_rpc", "wb_rpc", "wb_hit_pct", "wb_coalesce"},
	notes: []string{"all cells verified byte-identical read-back; write-behind turns per-segment RPCs into coalesced list flushes"},
	sweep: func(o RunOpts) []group {
		var cases []cacheCase
		for _, reuse := range []int{1, 4} {
			for _, density := range pick(o.Short, []int64{2}, []int64{2, 4}) {
				for _, pages := range pick(o.Short, []int{64}, []int{16, 64}) {
					cases = append(cases, cacheCase{reuse: reuse, density: density, pages: pages})
				}
			}
		}
		return grid(cases, []string{"uncached", "writethrough", "writebehind"},
			func(cs cacheCase, mode string) cacheResult { return cacheCell(cs, mode, o.Shards) },
			func(t *Table, cs cacheCase, res []cacheResult) {
				un, wt, wb := res[0], res[1], res[2]
				t.Add(cs.label(), cs.reuse, cs.density, cs.pages,
					un.mbs, wt.mbs, wb.mbs, un.rpcs, wb.rpcs, wb.hitPct, wb.coalesce)
			})
	},
}

type cacheResult struct {
	mbs      float64
	rpcs     int64
	hitPct   float64
	coalesce int64
}

// cacheCell runs one (geometry, mode) workload on a fresh cluster and
// returns throughput, wire RPC count, and cache effectiveness.
func cacheCell(cs cacheCase, mode string, shards int) cacheResult {
	const (
		segSize  = 2 << 10
		nSegs    = 64
		pageSize = 8 << 10
	)
	cfg := pvfs.DefaultConfig()
	cfg.Shards = shards
	f := newFixture(cfg, 4, 1)
	defer f.close()
	stride := segSize * cs.density
	pat := func(round int, i int64) []byte {
		b := make([]byte, segSize)
		for j := range b {
			b[j] = byte(round*31 + int(i)*7 + j)
		}
		return b
	}
	elapsed := f.runRanks(func(p *sim.Proc, _ *mpi.Rank, cl *pvfs.Client) {
		fh := cl.Open(p, "cache")
		var cf *pcache.File
		switch mode {
		case "writethrough":
			cf = pcache.New(fh, pcache.Config{PageSize: pageSize, Pages: cs.pages, WriteThrough: true})
		case "writebehind":
			cf = pcache.New(fh, pcache.Config{PageSize: pageSize, Pages: cs.pages})
		}
		wbuf := cl.Space().Malloc(segSize)
		rbuf := cl.Space().Malloc(segSize)
		for round := 0; round < cs.reuse; round++ {
			for i := int64(0); i < nSegs; i++ {
				sim.Must(cl.Space().Write(wbuf, pat(round, i)))
				if cf != nil {
					sim.Must(cf.Write(p, wbuf, segSize, i*stride))
				} else {
					sim.Must(fh.Write(p, wbuf, segSize, i*stride, pvfs.OpOptions{}))
				}
			}
			for i := int64(0); i < nSegs; i++ {
				if cf != nil {
					sim.Must(cf.Read(p, rbuf, segSize, i*stride))
				} else {
					sim.Must(fh.Read(p, rbuf, segSize, i*stride, pvfs.OpOptions{}))
				}
				got, err := cl.Space().Read(rbuf, segSize)
				sim.Must(err)
				if !bytes.Equal(got, pat(round, i)) {
					sim.Failf("bench: cache: %s/%s: round %d seg %d read back corrupted data",
						cs.label(), mode, round, i)
				}
			}
		}
		if cf != nil {
			sim.Must(cf.Sync(p))
			sim.Must(cf.Close(p))
		} else {
			fh.Sync(p)
		}
	})
	s := f.c.Snapshot()
	total := int64(cs.reuse) * 2 * nSegs * segSize
	ops := int64(cs.reuse) * 2 * nSegs
	return cacheResult{
		mbs:      bw(total, elapsed),
		rpcs:     s.ReadReqs + s.WriteReqs,
		hitPct:   float64(s.CacheHits) / float64(ops) * 100,
		coalesce: s.CoalescedFlushes,
	}
}
