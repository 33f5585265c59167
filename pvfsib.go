// Package pvfsib is a discrete-event-simulated reproduction of "Supporting
// Efficient Noncontiguous Access in PVFS over InfiniBand" (Wu, Wyckoff,
// Panda — CLUSTER 2003): a PVFS-style parallel file system whose clients
// and I/O servers communicate over a simulated InfiniBand verbs layer, with
// the paper's three contributions implemented faithfully:
//
//   - RDMA Gather/Scatter transfer of noncontiguous list-I/O data,
//   - Optimistic Group Registration (OGR) of list-I/O buffers,
//   - Active Data Sieving (ADS) on the I/O servers, driven by an explicit
//     cost model.
//
// Everything the paper's evaluation depends on is simulated in virtual
// time with real payload bytes: the fabric (internal/simnet), the verbs
// layer with memory registration and its costs (internal/ib), client
// virtual memory with allocation holes (internal/mem), disks and local
// file systems with page caches (internal/disk, internal/localfs), PVFS
// itself (internal/pvfs), a mini-MPI and a ROMIO-style MPI-IO layer with
// the four access methods (internal/mpi, internal/mpiio).
//
// This package is the facade: it builds a simulated cluster and runs
// application code on it, re-exporting the types a user needs. A typical
// session:
//
//	c := pvfsib.NewCluster(pvfsib.Options{Servers: 4, ComputeNodes: 4})
//	err := c.RunMPI(func(ctx *pvfsib.Ctx) {
//		f := pvfsib.OpenFile(ctx, "data")
//		// ... f.Write(ctx.Proc, pvfsib.ListIOADS, segs, regions)
//	})
//
// The experiment harness behind every table and figure of the paper lives
// in internal/bench and is driven by cmd/pvfsbench and the benchmarks in
// bench_test.go.
package pvfsib

import (
	"fmt"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/stats"
	"pvfsib/internal/trace"
	"pvfsib/internal/workload"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Config assembles all cluster tunables (striping, transfer policy,
	// substrate timing models).
	Config = pvfs.Config
	// OpOptions tunes one PVFS list-I/O operation.
	OpOptions = pvfs.OpOptions
	// OffLen is a contiguous file region.
	OffLen = pvfs.OffLen
	// SGE is a contiguous segment of client memory.
	SGE = ib.SGE
	// Addr is a simulated virtual address.
	Addr = mem.Addr
	// Extent is a byte range of simulated memory.
	Extent = mem.Extent
	// Proc is a simulation process handle. It is valid until the body it
	// was handed to returns; after that it names whichever process reuses it.
	Proc = sim.Proc
	// Duration is virtual time.
	Duration = sim.Duration
	// Rank is an MPI rank.
	Rank = mpi.Rank
	// Client is the PVFS client library instance on one compute node.
	Client = pvfs.Client
	// FileHandle is an open PVFS file.
	FileHandle = pvfs.FileHandle
	// File is an MPI-IO file with views and the four access methods.
	File = mpiio.File
	// Method selects an MPI-IO noncontiguous access method.
	Method = mpiio.Method
	// View is an MPI-IO file view.
	View = mpiio.View
	// Flat is a flattened MPI datatype.
	Flat = mpiio.Flat
	// Pattern is a paired memory/file access pattern.
	Pattern = workload.Pattern
	// Snapshot is a cluster-wide counter snapshot.
	Snapshot = stats.Snapshot
	// SieveMode selects the server's data-sieving behaviour.
	SieveMode = sieve.Mode
	// Transfer selects the noncontiguous transmission scheme.
	Transfer = pvfs.Transfer
	// FaultPlan is a declarative, seeded fault scenario (set Config.Faults
	// or call Cluster.AttachFaults).
	FaultPlan = fault.Plan
	// FaultSpike is a window of added per-message latency on a link.
	FaultSpike = fault.Spike
	// FaultCut is a bidirectional link partition window.
	FaultCut = fault.Cut
	// FaultCrash schedules an I/O-daemon crash and restart.
	FaultCrash = fault.Crash
	// FaultCounters is the injector's ground-truth tally of injected faults.
	FaultCounters = fault.Counters
	// Recovery tunes the client/server timeout-retry machinery active while
	// a fault plan is attached.
	Recovery = pvfs.Recovery
	// CacheConfig sizes a client-side page cache (write-behind, strided
	// read-ahead, lease-based coherence).
	CacheConfig = pcache.Config
	// CachedFile is a page cache attached to one open file.
	CachedFile = pcache.File
)

// FaultWildcard matches any fabric node in a FaultSpike or FaultCut
// endpoint.
const FaultWildcard = fault.Wildcard

// MPI-IO access methods (the paper's Section 2.3 list).
const (
	MultipleIO  = mpiio.MultipleIO
	DataSieving = mpiio.DataSieving
	ListIO      = mpiio.ListIO
	ListIOADS   = mpiio.ListIOADS
	Collective  = mpiio.Collective
)

// Transfer schemes.
const (
	Hybrid      = pvfs.Hybrid
	ForcePack   = pvfs.ForcePack
	ForceGather = pvfs.ForceGather
)

// RegPolicy selects how gather transfers register client buffers.
type RegPolicy = pvfs.RegPolicy

// Registration policies.
const (
	RegCached     = pvfs.RegCached
	RegOGR        = pvfs.RegOGR
	RegIndividual = pvfs.RegIndividual
)

// Server-side sieving modes.
const (
	SieveAuto   = sieve.Auto
	SieveAlways = sieve.Always
	SieveNever  = sieve.Never
)

// Datatype constructors.
var (
	Contig     = mpiio.Contig
	Vector     = mpiio.Vector
	Indexed    = mpiio.Indexed
	Subarray2D = mpiio.Subarray2D
	Subarray3D = mpiio.Subarray3D
)

// DefaultConfig returns the paper's testbed configuration: 64 kB stripes,
// 128-entry list requests, hybrid transfers with the 64 kB threshold,
// cached OGR registration, and cost-model ADS.
func DefaultConfig() Config { return pvfs.DefaultConfig() }

// ConventionalConfig returns a pre-InfiniBand cluster: ~80 MB/s TCP with
// stream-socket transport and no RDMA, the paper's baseline environment.
func ConventionalConfig() Config { return pvfs.ConventionalConfig() }

// File-pointer whence values (MPI_SEEK_SET/CUR/END).
const (
	SeekSet = mpiio.SeekSet
	SeekCur = mpiio.SeekCur
	SeekEnd = mpiio.SeekEnd
)

// Options configures a simulated cluster.
type Options struct {
	// Servers is the number of I/O server nodes (default 4; the first
	// also hosts the metadata manager, as in the paper's testbed).
	Servers int
	// ComputeNodes is the number of client nodes, one MPI rank each
	// (default 4).
	ComputeNodes int
	// Config overrides the cluster configuration; zero means
	// DefaultConfig.
	Config *Config
	// Seed is the cluster's single random-number seed. Today only the
	// fault plane draws randomness: when Config.Faults is set and the plan
	// leaves Seed at zero, this value seeds it. The same (workload, plan,
	// seed) triple always replays byte-identically.
	Seed int64
}

// Cluster is a simulated PVFS-over-InfiniBand deployment plus an MPI world
// with one rank per compute node.
type Cluster struct {
	inner *pvfs.Cluster
	world *mpi.World
}

// NewCluster builds the cluster. Setup (connections, pre-registered
// buffers) happens outside virtual time.
func NewCluster(opts Options) *Cluster {
	if opts.Servers == 0 {
		opts.Servers = 4
	}
	if opts.ComputeNodes == 0 {
		opts.ComputeNodes = 4
	}
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	if cfg.Faults != nil && cfg.Faults.Seed == 0 && opts.Seed != 0 {
		plan := *cfg.Faults
		plan.Seed = opts.Seed
		cfg.Faults = &plan
	}
	inner := pvfs.NewCluster(sim.NewEngine(), cfg, opts.Servers, opts.ComputeNodes)
	return &Cluster{inner: inner, world: mpiio.NewWorld(inner)}
}

// Inner exposes the underlying pvfs.Cluster for advanced use.
func (c *Cluster) Inner() *pvfs.Cluster { return c.inner }

// Client returns compute node i's PVFS client.
func (c *Cluster) Client(i int) *Client { return c.inner.Clients[i] }

// Size returns the number of compute nodes / MPI ranks.
func (c *Cluster) Size() int { return len(c.inner.Clients) }

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.inner.Eng.Now() }

// Snapshot returns the cluster-wide operation counters.
func (c *Cluster) Snapshot() Snapshot { return c.inner.Snapshot() }

// AttachFaults wires a fault plan into every substrate layer, replacing any
// previous plan; nil detaches everything and restores the zero-overhead
// fault-free paths. Plans must not crash server 0 (it hosts the manager).
func (c *Cluster) AttachFaults(plan *FaultPlan) { c.inner.AttachFaults(plan) }

// FaultCounters returns the injector's tally of faults actually injected so
// far (zero value when no plan is attached).
func (c *Cluster) FaultCounters() FaultCounters {
	if c.inner.Faults == nil {
		return FaultCounters{}
	}
	return c.inner.Faults.Totals()
}

// Ctx is the per-rank context handed to RunMPI bodies.
type Ctx struct {
	// Proc is the rank's simulation process, valid until the rank's body
	// returns.
	Proc *Proc
	// Rank is the MPI rank (Barrier, Send/Recv, collectives).
	Rank *Rank
	// Client is the rank's PVFS client library.
	Client *Client
}

// Malloc allocates n bytes in the rank's simulated address space.
func (ctx *Ctx) Malloc(n int64) Addr { return ctx.Client.Space().Malloc(n) }

// WriteMem stores data at a simulated address.
func (ctx *Ctx) WriteMem(addr Addr, data []byte) error {
	return ctx.Client.Space().Write(addr, data)
}

// ReadMem loads n bytes from a simulated address.
func (ctx *Ctx) ReadMem(addr Addr, n int64) ([]byte, error) {
	return ctx.Client.Space().Read(addr, n)
}

// OpenFile opens (creating if needed) an MPI-IO file for the rank.
func OpenFile(ctx *Ctx, name string) *File {
	return mpiio.Open(ctx.Proc, ctx.Client, ctx.Rank, name)
}

// DefaultCacheConfig returns the production page-cache geometry: 64 KiB
// pages (one stripe fragment each), 64 frames, flush at 32 dirty pages,
// 4-page read-ahead.
func DefaultCacheConfig() CacheConfig { return pcache.DefaultConfig() }

// OpenCachedFile opens an MPI-IO file with a client-side page cache
// attached: independent list operations are absorbed by write-behind and
// strided read-ahead, with lease-based coherence across clients.
func OpenCachedFile(ctx *Ctx, name string, cfg CacheConfig) *File {
	f := OpenFile(ctx, name)
	f.EnableCache(cfg)
	return f
}

// Materialize allocates and fills a workload pattern's memory layout,
// returning the scatter/gather list and the file regions.
func (ctx *Ctx) Materialize(pat Pattern, fill func(i int64) byte) ([]SGE, []OffLen) {
	base := ctx.Malloc(maxI64(pat.MemSpan(), 1))
	var segs []SGE
	cursor := int64(0)
	for _, r := range pat.Mem {
		seg := SGE{Addr: base + Addr(r.Off), Len: r.Len}
		segs = append(segs, seg)
		data := make([]byte, r.Len)
		for j := range data {
			if fill != nil {
				data[j] = fill(cursor + int64(j))
			}
		}
		sim.Must(ctx.Client.Space().Write(seg.Addr, data))
		cursor += r.Len
	}
	return segs, []OffLen(pat.File)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// RunMPI runs fn once per rank (concurrently in virtual time) and drives
// the simulation until all ranks finish. It may be called repeatedly; the
// virtual clock keeps advancing.
func (c *Cluster) RunMPI(fn func(ctx *Ctx)) error {
	for i := 0; i < c.Size(); i++ {
		ctx := &Ctx{Rank: c.world.Rank(i), Client: c.inner.Clients[i]}
		c.inner.Eng.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			ctx.Proc = p
			fn(ctx)
		})
	}
	return c.inner.Run()
}

// Run runs fn as a single application process on compute node 0.
func (c *Cluster) Run(fn func(p *Proc, cl *Client)) error {
	c.inner.Eng.Go("app", func(p *sim.Proc) { fn(p, c.inner.Clients[0]) })
	return c.inner.Run()
}

// Close terminates the cluster's service processes so the simulated world
// can be garbage-collected, and leaves the storage that shut-down clusters
// handed to the process's store to the collector too, so that nothing of
// the cluster is kept. Call it when building many clusters in one Go
// process; the cluster must not be used afterwards.
func (c *Cluster) Close() {
	c.inner.Eng.Shutdown()
	mem.DropStore()
}

// Tracer is the request-scoped span tracer: every request's journey
// through the layers as one span tree on the virtual clock, with fault
// instants as zero-length spans (see internal/trace).
type Tracer = trace.Tracer

// EnableTracing attaches a span tracer to every layer of the cluster and
// returns it; Spans lists what was recorded, Profile aggregates it, and
// WritePerfetto exports it. Call before running workloads.
func (c *Cluster) EnableTracing() *Tracer { return c.inner.EnableSpans() }
