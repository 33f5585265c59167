package bench

import (
	"fmt"
	"io"
	"time"

	"pvfsib/internal/ib"
	"pvfsib/internal/metrics"
	"pvfsib/internal/mpi"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/workload"
)

// timeline runs a checkpoint-burst workload with the metrics plane
// attached and reports the sampled series interval by interval: every
// rank periodically dumps its strided state through the page cache and
// syncs, then computes (idles) until the next burst. The table is the
// cluster's utilization/queue timeline — the view the aggregate counters
// of Snapshot cannot give — plus a saturation verdict per resource: the
// first interval where utilization pinned while the queue kept growing
// (the time-series knee; see saturationPoint). A single cell: one cluster,
// one workload, one pass over the sampled series. The cell honors
// o.Shards; the series are identical for every shard count.
var timeline = Experiment{
	ID:    "timeline",
	Title: "Checkpoint-burst timeline: sampled utilization/queue series with saturation detection",
	table: "Checkpoint-burst timeline: per-interval utilization and queue depths (metrics plane)",
	header: []string{"t_us", "tx_MBs", "net_util", "inflight",
		"disk_util", "disk_q", "disp_q", "io_q", "dirty_pages", "wb_MBs"},
	sweep: func(o RunOpts) []group {
		return each([]bool{o.Short},
			func(short bool) timelineResult { return timelineRun(short, o.Shards, nil) },
			func(t *Table, _ bool, r timelineResult) { timelineRows(t, r) })
	},
}

// timelineInterval is the sampling interval; timelineDepth rings hold the
// whole run (the cell asserts nothing was evicted), so the series are
// complete and the committed artifact is reproducible bit for bit.
const (
	timelineInterval = 500 * time.Microsecond
	timelineDepth    = 4096
)

type timelineResult struct {
	intervalNS int64
	servers    int
	// Per-interval series, index 0 = virtual time zero.
	txBytes  []float64 // fabric payload+header bytes sent
	netUtil  []float64 // mean tx-port utilization across all nodes
	inflight []float64 // messages in flight (staged or on the wire)
	diskUtil []float64 // mean device occupancy across the servers
	diskQ    []float64 // requests queued on (or holding) the devices
	dispQ    []float64 // requests inside dispatch across the daemons
	ioQ      []float64 // requests waiting on the daemons' file phase
	dirty    []float64 // dirty pages across the client caches
	wbBytes  []float64 // write-behind bytes drained per interval
}

// timelineRun drives the checkpoint bursts and samples the registry. When
// dump is non-nil the registry's full JSON and Prometheus exports are
// written to it after the run (the determinism test compares those bytes
// across shard counts).
func timelineRun(short bool, shards int, dump io.Writer) timelineResult {
	nserv, nranks, nseg := 4, 8, 16
	bursts := 3
	if short {
		nserv, nranks, nseg = 2, 4, 8
	}
	const (
		segSize = 64 << 10
		gap     = 20 * time.Millisecond // compute phase between bursts
	)
	cfg := pvfs.DefaultConfig()
	cfg.Shards = shards
	f := newFixture(cfg, nserv, nranks)
	defer f.close()
	mx := f.c.EnableMetrics(metrics.Config{Interval: timelineInterval, Depth: timelineDepth})

	segsOf := make([][]ib.SGE, nranks)
	for i := range segsOf {
		mem := workload.Pattern{Mem: strided(int64(nseg), segSize)}
		segsOf[i] = materialize(f.c.Clients[i], mem, byte(i)).Segs
	}
	// Each burst checkpoints into its own strided region of the rank's
	// file: segment j of burst b lands at (b*nseg + j) * 3*segSize,
	// leaving two holes after every segment (noncontiguous list I/O).
	// The odd stride matters: segSize equals the default stripe, so a
	// stride of 3 stripes walks the segments across every server instead
	// of aliasing them all onto one.
	accsOf := func(burst int) []pvfs.OffLen {
		accs := make([]pvfs.OffLen, 0, nseg)
		for j := 0; j < nseg; j++ {
			accs = append(accs, pvfs.OffLen{
				Off: int64(burst*nseg+j) * 3 * segSize,
				Len: segSize,
			})
		}
		return accs
	}

	f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		fh := cl.Open(p, fmt.Sprintf("ckpt-rank%d", rank.ID()))
		cf := pcache.New(fh, pcache.Config{})
		for b := 0; b < bursts; b++ {
			rank.Barrier(p)
			sim.Must(cf.WriteList(p, segsOf[rank.ID()], accsOf(b)))
			sim.Must(cf.Sync(p))
			if b < bursts-1 {
				p.Sleep(gap)
			}
		}
		sim.Must(cf.Close(p))
	})

	now := f.c.Eng.Now()
	if dump != nil {
		sim.Must(mx.WriteJSON(dump, now))
		sim.Must(mx.WritePromText(dump, now))
	}
	snap := mx.Snapshot(now)
	for _, s := range snap {
		if s.Lost != 0 || s.First != 0 {
			sim.Failf("bench: timeline: series %s/%s evicted samples (lost=%d first=%d); raise timelineDepth",
				s.Node, s.Name, s.Lost, s.First)
		}
	}
	// Every node's series of a name, summed interval by interval and
	// scaled by k (the window starts at interval 0: the cell asserts
	// First==0 above).
	sums := metrics.SumByName(snap)
	sum := func(name string, k float64) []float64 {
		out := make([]float64, len(sums[name].Vals))
		for i, v := range sums[name].Vals {
			out[i] = float64(v) * k
		}
		return out
	}
	iv := float64(timelineInterval)
	return timelineResult{
		intervalNS: int64(timelineInterval),
		servers:    nserv,
		txBytes:    sum("net.tx.bytes", 1),
		netUtil:    sum("net.tx.busy", 1/(iv*float64(sums["net.tx.busy"].Nodes))),
		inflight:   sum("net.inflight", 1),
		diskUtil:   sum("disk.busy", 1/(iv*float64(nserv))),
		diskQ:      sum("disk.queue", 1),
		dispQ:      sum("srv.dispatch.queue", 1),
		ioQ:        sum("srv.io.queue", 1),
		dirty:      sum("pcache.dirty", 1),
		wbBytes:    sum("pcache.wb.bytes", 1),
	}
}

// timelineRows renders one row per interval plus the saturation
// verdicts. Utilizations are fractions of capacity (1.000 = pinned).
func timelineRows(t *Table, r timelineResult) {
	ivSec := float64(r.intervalNS) / 1e9
	for i := range r.txBytes {
		t.Add(
			int64(i)*r.intervalNS/1000,
			at(r.txBytes, i)/ivSec/MB,
			fmt.Sprintf("%.3f", at(r.netUtil, i)),
			int64(at(r.inflight, i)),
			fmt.Sprintf("%.3f", at(r.diskUtil, i)),
			int64(at(r.diskQ, i)),
			int64(at(r.dispQ, i)),
			int64(at(r.ioQ, i)),
			int64(at(r.dirty, i)),
			at(r.wbBytes, i)/ivSec/MB,
		)
	}
	t.Note("interval=%dus servers=%d; utilizations are fractions of capacity", r.intervalNS/1000, r.servers)
	describe := func(name string, util, queue []float64) {
		if k := saturationPoint(util, queue, 0.95); k >= 0 {
			t.Note("saturation %s: utilization pinned with a standing backlog from t=%dus (interval %d)",
				name, int64(k)*r.intervalNS/1000, k)
		} else {
			t.Note("saturation %s: never pinned", name)
		}
	}
	describe("disk", r.diskUtil, r.diskQ)
	describe("net", r.netUtil, r.inflight)
}

// at reads vals[i], tolerating the ragged tails of series that saw no
// write in the final intervals.
func at(vals []float64, i int) float64 {
	if i >= len(vals) {
		return 0
	}
	return vals[i]
}
