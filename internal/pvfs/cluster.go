package pvfs

import (
	"fmt"
	"strings"

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
	Faults     *fault.Injector
	faultRands fault.Rands // one generator per fault stream, reseeded by every AttachFaults

	// Metrics, when non-nil, is the virtual-time metrics registry wired
	// into every layer (attach with EnableMetrics). Nil keeps every
	// sampling site a single-branch no-op.
	Metrics *metrics.Registry

	// recs holds one record pool per engine shard (proto.go); a node's
	// processes use the pool of the shard the node runs on.
	recs []recordPool
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

// traceNames lists every name the layers stamp on spans and series: the
// fabric nodes and the disks, in deterministic cluster order.
func (c *Cluster) traceNames() []string {
	var names []string
	for _, s := range c.Servers {
		names = append(names, s.node.Name, s.dsk.Name())
	}
	for _, cl := range c.Clients {
		names = append(names, cl.node.Name)
	}
	return append(names, c.Manager.node.Name)
}

// EnableSpans attaches a span tracer to every layer of the cluster — the
// fabric, every adapter, every disk, and every daemon's sieve — so each
// request's journey is recorded as one span tree on the virtual clock,
// with the fault plane's instants (crash, restart, abort, pack fallback)
// as zero-length spans under the request they hit.
// Call it before running workloads; attaching replaces any previous
// tracer. The same pattern as AttachFaults: one structural hook per
// substrate, detachable with DisableSpans.
func (c *Cluster) EnableSpans() *trace.Tracer {
	tr := trace.NewTracer(c.traceNames()...)
	c.attachTracer(tr)
	return tr
}

// DisableSpans detaches the span tracer from every layer, restoring the
// allocation-free untraced paths. The old tracer (and its recorded
// spans) stays readable.
func (c *Cluster) DisableSpans() { c.attachTracer(nil) }

func (c *Cluster) attachTracer(tr *trace.Tracer) {
	c.Spans = tr
	c.Net.SetTracer(tr)
	for _, s := range c.Servers {
		s.hca.SetTracer(tr)
		s.dsk.SetTracer(tr)
		s.sieveParams.Tracer = tr
		s.sieveParams.Node = s.node.Name
	}
	for _, cl := range c.Clients {
		cl.hca.SetTracer(tr)
	}
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
	c.recs = make([]recordPool, eng.NumShards())
	for i := 0; i < nServers; i++ {
		c.Servers = append(c.Servers, newServer(c, i))
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
		c.Eng.GoOn(c.Manager.node.Group(), fmt.Sprintf("mgr[<-io%d]", s.idx),
			func(p *sim.Proc) { c.Manager.serve(p, mq) })
		// Daemons register at boot; boot happens statically here.
		c.Manager.iods[s.idx] = 0
	}
	for i := 0; i < nClients; i++ {
		cl := newClient(c, i)
		c.Clients = append(c.Clients, cl)
		cl.connect()
	}
	if cfg.Faults != nil {
		c.AttachFaults(cfg.Faults)
	}
	return c
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

// infraPrefixes name the service processes that legitimately park forever
// waiting for work.
var infraPrefixes = []string{"hca[", "iod[", "mgr[", "cb["}

func isInfra(name string) bool {
	for _, p := range infraPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Run drives the simulation until all application processes finish. The
// infrastructure processes (the adapters' read responders, I/O daemons, the
// manager) park forever waiting for more work; a parked *application*
// process is a real deadlock and is reported.
func (c *Cluster) Run() error {
	err := c.Eng.Run()
	if err == nil {
		return nil
	}
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		return err
	}
	var stuck []string
	for _, name := range de.Parked {
		if !isInfra(name) {
			stuck = append(stuck, name)
		}
	}
	if len(stuck) > 0 {
		return &sim.DeadlockError{Time: de.Time, Parked: stuck}
	}
	return nil
}
