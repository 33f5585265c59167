package bench

import (
	"fmt"
	"sync"

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
	// setup is the bytes building the cluster and the world cleared.
	setup int64
}

// close terminates the fixture's service processes so the whole simulated
// cluster becomes garbage-collectable; sweeps build many clusters and would
// otherwise exhaust host memory.
func (f *fixture) close() {
	acct := f.c.Acct()
	retire(f.c.Eng, HostWork{Requests: acct.IOReqs(), PayloadBytes: acct.BytesClientServer, SetupCleared: f.setup}, f)
}

// HostCost folds what the fixture has cost the host so far: the cluster's
// share and the MPI world's.
func (f *fixture) HostCost() sim.HostCost {
	hc := f.c.HostCost()
	hc.Add(f.w.HostCost())
	return hc
}

// HostWork is what finished cells cost the host next to the simulated work
// that bought: it describes the host, never a table's content.
type HostWork struct {
	sim.HostCost
	Requests     int64 `json:"requests"`      // request messages clients sent to servers (read, write, sync)
	PayloadBytes int64 `json:"payload_bytes"` // data bytes between clients and servers
	SetupCleared int64 `json:"setup_cleared"` // the part of BytesCleared spent building clusters
}

var retired struct {
	sync.Mutex
	work HostWork
}

// Retired returns the work of every cell retired so far, by any cell on any
// worker.
func Retired() HostWork {
	retired.Lock()
	defer retired.Unlock()
	return retired.work
}

// coster is a layer that tallies its own host cost.
type coster interface{ HostCost() sim.HostCost }

// retire adds a finished cell's work — what the caller counted plus the
// host cost of parts, which must cover the engine — to the Retired totals and
// shuts the engine down.
func retire(eng *sim.Engine, work HostWork, parts ...coster) {
	for _, part := range parts {
		work.Add(part.HostCost())
	}
	retired.Lock()
	retired.work.Add(work.HostCost)
	retired.work.Requests += work.Requests
	retired.work.PayloadBytes += work.PayloadBytes
	retired.work.SetupCleared += work.SetupCleared
	retired.Unlock()
	eng.Shutdown()
}

// sub returns w - o, the work done between two readings of Retired.
func (w HostWork) sub(o HostWork) HostWork {
	return HostWork{w.HostCost.Sub(o.HostCost), w.Requests - o.Requests, w.PayloadBytes - o.PayloadBytes, w.SetupCleared - o.SetupCleared}
}

func newFixture(cfg pvfs.Config, nServers, nRanks int) *fixture {
	c := pvfs.NewCluster(sim.NewEngine(), cfg, nServers, nRanks)
	f := &fixture{c: c, w: mpiio.NewWorld(c)}
	f.setup = f.HostCost().BytesCleared
	return f
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
	segs := make([]ib.SGE, len(pat.Mem))
	for i, r := range pat.Mem {
		segs[i] = ib.SGE{Addr: base + mem.Addr(r.Off), Len: r.Len}
	}
	fillPattern(cl.Space(), segs, seed)
	return buffer{Base: base, Segs: segs, Accs: []pvfs.OffLen(pat.File)}
}

// fillRun is the most pattern bytes one write into simulated memory takes
// from patternBytes.
const fillRun = 64 << 10

// patternBytes[k] is byte(k). The pattern's byte j of segment i is
// byte(seed + i*31 + j), which has period 256 in j: any run of it up to
// fillRun long is a subslice of this table, starting at the run's phase.
var patternBytes = func() (t [256 + fillRun]byte) {
	for k := range t {
		t[k] = byte(k)
	}
	return
}()

// fillPattern writes the seed-derived pattern into the segments, straight
// from the table: no buffer is built to be copied from.
func fillPattern(space *mem.AddrSpace, segs []ib.SGE, seed byte) {
	for i, s := range segs {
		for off := int64(0); off < s.Len; off += fillRun {
			phase := (int64(seed) + int64(i)*31 + off) & 255
			sim.Must(space.Write(s.Addr+mem.Addr(off), patternBytes[phase:phase+min(s.Len-off, fillRun)]))
		}
	}
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
