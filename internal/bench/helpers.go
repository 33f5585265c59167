package bench

import (
	"fmt"
	"sync/atomic"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/workload"
)

// MB is the paper's megabyte, 2^20 bytes.
const MB = simnet.MB

// fixture is a cluster plus an MPI world with rank i on client i.
type fixture struct {
	c *pvfs.Cluster
	w *mpi.World
}

// close terminates the fixture's service processes so the whole simulated
// cluster becomes garbage-collectable; sweeps build many clusters and would
// otherwise exhaust host memory.
func (f *fixture) close() { retire(f.c.Eng) }

// EngineWork is what the engines of finished cells executed. It describes
// the host's work, never a table's content.
type EngineWork struct {
	Events      int64 `json:"events"`
	Resumes     int64 `json:"resumes"`      // events that switched into a process
	InlineWakes int64 `json:"inline_wakes"` // events that were Sleep expiries taken without a switch
}

var retired struct{ events, resumes, inlineWakes atomic.Int64 }

// Retired returns the work of every engine retired so far, by any cell on
// any worker.
func Retired() EngineWork {
	return EngineWork{retired.events.Load(), retired.resumes.Load(), retired.inlineWakes.Load()}
}

// retire adds a finished cell's engine to the Retired totals and shuts it
// down.
func retire(eng *sim.Engine) {
	tm := eng.Telemetry()
	retired.events.Add(tm.TotalEvents())
	retired.resumes.Add(tm.Resumes)
	retired.inlineWakes.Add(tm.InlineWakes)
	eng.Shutdown()
}

func newFixture(cfg pvfs.Config, nServers, nRanks int) *fixture {
	c := pvfs.NewCluster(sim.NewEngine(), cfg, nServers, nRanks)
	return &fixture{c: c, w: mpiio.NewWorld(c)}
}

// runRanks runs fn on every rank and drives the simulation; it returns the
// wall-clock (virtual) time from the earliest start to the latest finish.
// Each rank's process is spawned on its own client's node group, so a
// sharded engine runs the ranks genuinely in parallel; finish times are
// collected per rank (own cache line, own shard) and folded after the run.
func (f *fixture) runRanks(fn func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client)) sim.Duration {
	start := f.c.Eng.Now()
	ends := make([]sim.Time, f.w.Size())
	for i := 0; i < f.w.Size(); i++ {
		i, r, cl := i, f.w.Rank(i), f.c.Clients[i]
		f.c.Eng.GoOn(cl.Node().Group(), fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			fn(p, r, cl)
			ends[i] = p.Now()
		})
	}
	if err := f.c.Run(); err != nil {
		sim.Failf("bench: simulation failed: %v", err)
	}
	var end sim.Time
	for _, e := range ends {
		if e > end {
			end = e
		}
	}
	return end.Sub(start)
}

// buffer is a materialized workload pattern in a client's address space.
type buffer struct {
	Base mem.Addr
	Segs []ib.SGE
	Accs []pvfs.OffLen
}

// materialize allocates pattern memory in the client's space, fills it with
// a seed-derived byte pattern, and returns the SGE/region lists.
func materialize(cl *pvfs.Client, pat workload.Pattern, seed byte) buffer {
	base := cl.Space().Malloc(max(pat.MemSpan(), 1))
	var segs []ib.SGE
	for _, r := range pat.Mem {
		segs = append(segs, ib.SGE{Addr: base + mem.Addr(r.Off), Len: r.Len})
	}
	for i, s := range segs {
		data := make([]byte, s.Len)
		for j := range data {
			data[j] = byte(int(seed) + i*31 + j)
		}
		sim.Must(cl.Space().Write(s.Addr, data))
	}
	return buffer{Base: base, Segs: segs, Accs: []pvfs.OffLen(pat.File)}
}

// layout gives one rank's share of a rank-parallel access: where its bytes
// sit in its own memory and in the shared file.
type layout func(rank, ranks int) workload.Pattern

// strided is nseg noncontiguous memory segments of segSize bytes, two sizes
// (at least 512 bytes) apart.
func strided(nseg, segSize int64) mpiio.Flat {
	return mpiio.Vector(nseg, segSize, max(2*segSize, 512))
}

// interleaved is the list-I/O sweeps' layout: every rank holds nseg strided
// memory segments of segSize bytes, and segment j of rank r lands at file
// offset (j*ranks + r) * segSize — the ranks' segments interleave, so every
// server sees noncontiguous pieces from every client.
func interleaved(nseg, segSize int64) layout {
	return func(rank, ranks int) workload.Pattern {
		return workload.Pattern{
			Mem:  strided(nseg, segSize),
			File: mpiio.Vector(nseg, segSize, int64(ranks)*segSize).Shift(int64(rank) * segSize),
		}
	}
}

// packed keeps a pattern's file regions but lays its memory segments back
// to back, one per region: the shape of a read-back buffer.
func packed(pat workload.Pattern) workload.Pattern {
	m := make(mpiio.Flat, len(pat.File))
	var off int64
	for i, r := range pat.File {
		m[i] = pvfs.OffLen{Off: off, Len: r.Len}
		off += r.Len
	}
	return workload.Pattern{Mem: m, File: pat.File}
}

// bw returns bandwidth in the paper's MB/s for bytes moved in d.
func bw(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / MB
}

// dropAllCaches flushes and empties every server's page cache.
func dropAllCaches(p *sim.Proc, c *pvfs.Cluster) {
	for _, s := range c.Servers {
		s.FS().DropCaches(p)
	}
}

// methodList is the paper's four noncontiguous access methods in figure
// order.
var methodList = []mpiio.Method{mpiio.MultipleIO, mpiio.DataSieving, mpiio.ListIO, mpiio.ListIOADS}
