package pvfs

import (
	"fmt"

	"pvfsib/internal/disk"
	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/metrics"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/stats"
	"pvfsib/internal/trace"
)

// Cluster is one simulated PVFS deployment: I/O servers (one doubling as
// metadata manager), compute nodes running the client library, and the
// InfiniBand fabric connecting them.
type Cluster struct {
	Eng     *sim.Engine
	Net     *simnet.Network
	Cfg     Config
	Servers []*Server
	Clients []*Client
	Manager *Manager

	// Spans, when non-nil, is the request-scoped span tracer wired into
	// every layer (attach with EnableSpans). Nil keeps every hot path
	// allocation-free.
	Spans *trace.Tracer

	// Faults is the attached fault injector, nil for fault-free runs
	// (attach with Cfg.Faults or AttachFaults).
	Faults       *fault.Injector
	faultStreams fault.Streams // every injector's streams, built by the first AttachFaults

	// Metrics, when non-nil, is the virtual-time metrics registry wired
	// into every layer (attach with EnableMetrics). Nil keeps every
	// sampling site a single-branch no-op.
	Metrics *metrics.Registry

	// names lists every name the layers stamp on spans, series and fault
	// streams, in cluster order: each server's node and disk, then each
	// client's node (the manager shares server 0's). The tracer, the
	// registry and the injector all register from it, so the three planes
	// agree on node order.
	names []string

	// recs holds one record pool per engine shard (proto.go); a node's
	// processes use the pool of the shard the node runs on.
	recs recordPools
}

// recordPool returns the pool of the shard that runs the node.
func (c *Cluster) recordPool(n *simnet.Node) *recordPool {
	return &c.recs[n.Group().ShardIndex()]
}

// Acct sums the protocol counters across every entity — the manager, then
// the servers, then the clients, in index order. Each entity tallies its
// own counters (its group's shard touches only its own set), so the
// cluster-wide view is a deterministic fold regardless of shard count.
func (c *Cluster) Acct() stats.Acct {
	var a stats.Acct
	a.Add(c.Manager.acct)
	for _, s := range c.Servers {
		a.Add(s.acct)
	}
	for _, cl := range c.Clients {
		a.Add(cl.acct)
	}
	return a
}

// HostCost folds what the cluster has cost the host so far: the engine's
// events and switches, and the bytes copied and cleared and the storage
// allocated or reused behind every node's memory, every server's files and
// the staging pools. Each layer counts where it does the work; like
// sim.Telemetry the result describes the execution and belongs in no table.
func (c *Cluster) HostCost() sim.HostCost {
	hc := c.Eng.Telemetry().HostCost()
	hc.Add(ib.PoolHostCost(c.Net, c.Eng.NumShards()))
	for _, s := range c.Servers {
		hc.Add(s.space.HostCost())
		hc.Add(s.fs.HostCost())
		hc.Add(s.scratch.HostCost())
	}
	for _, cl := range c.Clients {
		hc.Add(cl.space.HostCost())
	}
	return hc
}

// EnableSpans attaches a span tracer to every layer of the cluster — the
// fabric, every adapter, every disk, and every daemon's sieve — so each
// request's journey is recorded as one span tree on the virtual clock,
// with the fault plane's instants (crash, restart, abort, pack fallback)
// as zero-length spans under the request they hit.
// Call it before running workloads; attaching replaces any previous
// tracer, and DisableSpans detaches it.
func (c *Cluster) EnableSpans() *trace.Tracer {
	c.Spans = trace.NewTracer(c.names...)
	c.attach()
	return c.Spans
}

// DisableSpans detaches the span tracer from every layer, restoring the
// allocation-free untraced paths. The old tracer (and its recorded
// spans) stays readable.
func (c *Cluster) DisableSpans() {
	c.Spans = nil
	c.attach()
}

// attach is the one fan-out of the observer planes: it wires the
// cluster's span tracer, metrics registry and fault injector — each nil
// when detached — into every layer that consults them: the fabric, each
// server's adapter, disk, sieve and daemon, each client's adapter and
// library, and the manager (whose adapter is server 0's). Every adapter
// also gets the record pools, to hand back the records a fault discards.
// Handing a layer a plane that did not change leaves that plane's output
// as it was, so attaching one plane never perturbs another. Call while the
// engine is idle.
func (c *Cluster) attach() {
	tr, mx := c.Spans, c.Metrics
	// A nil *fault.Injector in an interface would be a non-nil hook.
	var inj interface {
		simnet.FaultPolicy
		ib.FaultInjector
		disk.FaultInjector
	}
	if c.Faults != nil {
		inj = c.Faults
	}
	adapter := func(h *ib.HCA) {
		h.SetTracer(tr)
		h.SetMetrics(mx)
		h.SetFaults(inj)
		h.SetDiscarder(&c.recs)
	}
	c.Net.SetTracer(tr)
	c.Net.SetMetrics(mx)
	c.Net.SetFaults(inj)
	for _, s := range c.Servers {
		adapter(s.hca)
		s.dsk.SetTracer(tr)
		s.dsk.SetMetrics(mx)
		s.dsk.SetFaults(inj)
		s.sieveParams.Tracer, s.sieveParams.Node = tr, s.node.Name
		s.setMetrics(mx)
	}
	for _, cl := range c.Clients {
		adapter(cl.hca)
		cl.setMetrics(mx)
	}
	c.Manager.setMetrics(mx)
}

// NewCluster builds a cluster with the given server and client counts. All
// connections and pre-registered buffers are set up statically; setup costs
// do not appear in virtual time.
//
// Every server and client gets its own engine group (the manager shares
// server 0's), so with Cfg.Shards > 1 the engine spreads the nodes over
// that many parallel shards — with byte-identical results at any count.
func NewCluster(eng *sim.Engine, cfg Config, nServers, nClients int) *Cluster {
	if nServers < 1 || nClients < 1 {
		sim.Failf("pvfs: need at least one server and one client")
	}
	if cfg.Shards > 0 {
		eng.SetShards(cfg.Shards)
	}
	c := &Cluster{
		Eng: eng,
		Net: simnet.New(eng, cfg.Net),
		Cfg: cfg,
	}
	c.recs = make(recordPools, eng.NumShards())
	for i := 0; i < nServers; i++ {
		s := newServer(c, i)
		c.Servers = append(c.Servers, s)
		c.names = append(c.names, s.node.Name, s.dsk.Name())
	}
	c.Manager = newManager(c)
	for _, s := range c.Servers {
		// Control connection daemon -> manager, used by a restarted daemon
		// to re-register. Exempt from WR-error injection; for server 0 it
		// is a (working) self-connection through its own adapter.
		sq, mq := ib.Connect(s.hca, c.Manager.hca)
		sq.MarkControl()
		mq.MarkControl()
		s.mgrQP = sq
		s.mgrMu = eng.NewResource(fmt.Sprintf("mgrconn[io%d]", s.idx), 1)
		c.Eng.GoDaemonOn(c.Manager.node.Group(), fmt.Sprintf("mgr[<-io%d]", s.idx),
			func(p *sim.Proc) { c.Manager.serve(p, mq) })
		// Daemons register at boot; boot happens statically here.
		c.Manager.iods[s.idx] = 0
	}
	for i := 0; i < nClients; i++ {
		cl := newClient(c, i)
		c.Clients = append(c.Clients, cl)
		c.names = append(c.names, cl.node.Name)
		cl.connect()
	}
	if cfg.Faults != nil {
		c.AttachFaults(cfg.Faults)
	}
	eng.SetRetirer((*retiring)(c))
	return c
}

// retiring is a cluster as its engine's retirer: Engine.Shutdown, once every
// process has unwound, hands the storage of the cluster's memories and file
// systems to the store that backs the clusters built next (mem.Keep). The
// memories go before the file systems, so that a client's window lent by an
// iod's file is released while the file is alive. Afterwards every access to
// a node's memory or files fails.
type retiring Cluster

func (r *retiring) Retire() {
	c := (*Cluster)(r)
	for _, cl := range c.Clients {
		cl.space.Retire()
	}
	for _, s := range c.Servers {
		s.space.Retire()
		s.fs.Retire()
	}
}

// Snapshot gathers the cluster-wide counters (Table 4 / Table 6 material).
func (c *Cluster) Snapshot() stats.Snapshot {
	s := stats.Snapshot{Acct: c.Acct()}
	if c.Faults != nil {
		fc := c.Faults.Totals()
		s.FaultWRErrors = fc.WRErrors
		s.FaultDrops = fc.Drops
		s.FaultDiskErrors = fc.DiskErrors + fc.DiskSlow
		s.FaultRegFailures = fc.RegFailures
	}
	for _, cl := range c.Clients {
		hc := cl.hca.Counters
		s.Registrations += hc.Registrations
		s.Deregistrations += hc.Deregistrations
		s.RegCacheHits += hc.RegCacheHits
		s.QPResets += hc.QPResets
		// A lookup is either a cache hit, a cache miss (which registers),
		// or a direct registration (no cache involved). Cache misses are
		// counted inside Registrations too, so lookups are hits plus all
		// registrations plus failed attempts.
		s.RegLookups += hc.RegCacheHits + hc.Registrations + hc.RegFailures
	}
	for _, srv := range c.Servers {
		s.QPResets += srv.hca.Counters.QPResets
		fc := srv.fs.Counters
		s.FSReadCalls += fc.ReadCalls
		s.FSWriteCalls += fc.WriteCalls
		dc := srv.dsk.Counters
		s.DeviceReads += dc.ReadOps
		s.DeviceWrites += dc.WriteOps
		s.SieveWindows += srv.SieveStats.Windows
		s.SieveWins += srv.SieveStats.SievedWins
	}
	return s
}

// Run drives the simulation until all application processes finish. The
// infrastructure processes (the adapters' read responders, the I/O daemons'
// connection loops, the manager, the clients' recall daemons) are daemons
// that park forever waiting for more work; a parked *application* process is
// a real deadlock and is reported.
func (c *Cluster) Run() error { return c.Eng.Run() }
