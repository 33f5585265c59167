package bench

import (
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// breakdownResult is one method's cell output.
type breakdownResult struct {
	elapsed sim.Duration
	prof    *trace.Profile
}

// breakdown runs the same noncontiguous workload under each of the four
// access methods with span tracing enabled and reports where the time
// goes: the per-stage self-time decomposition (registration, staging
// copies, wire, queueing, sieve, disk) the span plane computes, plus
// request latency and peak server concurrency. It is the cost-model
// counterpart of Figures 6/7 — not how fast each method is, but why.
var breakdown = Experiment{
	ID:    "breakdown",
	Title: "Per-stage time decomposition by access method (span-plane self time)",
	header: []string{"method", "ms", "req#", "p99_ms", "inflight",
		"reg%", "pack%", "wire%", "queue%", "sieve%", "disk%", "other%"},
	notes: []string{
		"shares are per-stage self time summed over all spans; p99 is the root-span latency quantile upper bound",
		"expected shape: multiple pays per-piece round trips (other/wire), datasieving reads extra disk bytes, listio+ads shifts time from disk to sieve",
	},
	sweep: func(o RunOpts) []group {
		nseg := pick[int64](o.Short, 16, 64)
		return each(methodList,
			func(m mpiio.Method) breakdownResult {
				tr, elapsed := breakdownCell(m, nseg)
				return breakdownResult{elapsed: elapsed, prof: tr.Profile()}
			},
			func(t *Table, m mpiio.Method, r breakdownResult) {
				p := r.prof
				total := p.TotalNs()
				pct := func(st trace.Stage) float64 {
					if total <= 0 {
						return 0
					}
					return float64(p.Stage[st].Ns) / float64(total) * 100
				}
				t.Add(m.String(),
					float64(r.elapsed)/1e6,
					p.Latency.Count,
					float64(p.Latency.Quantile(0.99))/1e6,
					p.MaxInflight(),
					pct(trace.StageReg), pct(trace.StagePack), pct(trace.StageWire),
					pct(trace.StageQueue), pct(trace.StageSieve), pct(trace.StageDisk),
					pct(trace.StageOther))
			})
	},
}

// breakdownCell runs one method's write+read pass with tracing on and
// returns the tracer and the elapsed virtual time. Four ranks write and
// read back interleaved 16 kB segments so every server sees
// noncontiguous pieces from every client.
func breakdownCell(m mpiio.Method, nseg int64) (*trace.Tracer, sim.Duration) {
	const segSize = int64(16 << 10)
	const ranks = 4
	f := newFixture(pvfs.DefaultConfig(), 4, ranks)
	defer f.close()
	tr := f.c.EnableSpans()

	bufs := make([]buffer, ranks)
	for i := range bufs {
		bufs[i] = materialize(f.c.Clients[i], interleaved(nseg, segSize)(i, ranks), byte(i))
	}
	elapsed := f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		file := mpiio.Open(p, cl, rank, "breakdown")
		buf := bufs[rank.ID()]
		sim.Must(file.Write(p, m, buf.Segs, buf.Accs))
		rank.Barrier(p)
		// Flush the page caches so the read pass pays for real device
		// transfers and the disk stage is visible in the decomposition.
		if rank.ID() == 0 {
			dropAllCaches(p, f.c)
		}
		rank.Barrier(p)
		sim.Must(file.Read(p, m, buf.Segs, buf.Accs))
	})
	return tr, elapsed
}

// TraceRun executes one traced ListIO+ADS pass of the breakdown workload
// and returns its span tracer; pvfsbench -trace exports it as a Perfetto
// trace plus a breakdown profile. Deterministic: the same short flag
// always yields a byte-identical span table.
func TraceRun(short bool) *trace.Tracer {
	tr, _ := breakdownCell(mpiio.ListIOADS, pick[int64](short, 16, 64))
	return tr
}
