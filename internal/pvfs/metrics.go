package pvfs

import (
	"pvfsib/internal/metrics"
)

// serverMetrics is one daemon's instrument set (zero-value sinks when
// metrics are off). All series are stamped with the server's node name
// and only touched by the server group's events.
type serverMetrics struct {
	dispQ  metrics.Gauge // requests inside dispatch (decode to reply)
	ioQ    metrics.Gauge // requests queued on (or holding) the iod's file phase
	ioBusy metrics.Busy  // time the single-threaded file phase was occupied
}

// clientMetrics is one client's recovery-pressure instrument set.
type clientMetrics struct {
	retries  metrics.Counter // chunk/RPC re-issues
	timeouts metrics.Counter // reply waits that expired
	backoff  metrics.Busy    // time spent sleeping in retry backoff
}

// managerMetrics is the metadata manager's lease instrument set.
type managerMetrics struct {
	leaseGrants  metrics.Counter
	leaseRecalls metrics.Counter
}

// CacheMetrics is the instrument set the client page cache
// (internal/pcache) samples through, exposed as a struct of handles so
// the cache — which opens files while the simulation is running — never
// touches the registry itself: all creation happens here at attach time,
// on an idle engine. Hits, Misses, ReadAheads and WBBytes write through
// to the client's Acct, so the cache counts each event once, metrics on
// or off; the other handles are no-op sinks without a registry.
type CacheMetrics struct {
	Resident   metrics.Gauge   // pages holding data
	Dirty      metrics.Gauge   // pages with unflushed bytes
	Hits       metrics.Counter // list ops served from resident pages
	Misses     metrics.Counter // pages fetched on demand
	ReadAheads metrics.Counter // pages prefetched by the stride detector
	WBBytes    metrics.Counter // dirty bytes drained by write-behind
	Recalls    metrics.Counter // lease recalls served (flush + invalidate)
}

// CacheMetrics returns the client's page-cache instrument handles. The
// pointer is stable for the client's lifetime; the handles it holds are
// replaced on EnableMetrics/DisableMetrics.
func (c *Client) CacheMetrics() *CacheMetrics { return &c.cacheMX }

func (s *Server) setMetrics(mx *metrics.Registry) {
	name := s.node.Name
	s.mx = serverMetrics{
		dispQ:  mx.Gauge(name, "srv.dispatch.queue"),
		ioQ:    mx.Gauge(name, "srv.io.queue"),
		ioBusy: mx.Busy(name, "srv.io.busy"),
	}
}

// setMetrics (re)binds the client's instruments. The counters that shadow
// an Acct field write through to it with or without a registry, so
// newClient binds them before anything can count.
func (c *Client) setMetrics(mx *metrics.Registry) {
	name := c.node.Name
	c.mx = clientMetrics{
		retries:  mx.Counter(name, "rpc.retry").Owned(&c.acct.Retries),
		timeouts: mx.Counter(name, "rpc.timeout").Owned(&c.acct.Timeouts),
		backoff:  mx.Busy(name, "rpc.backoff"),
	}
	c.cacheMX = CacheMetrics{
		Resident:   mx.Gauge(name, "pcache.resident"),
		Dirty:      mx.Gauge(name, "pcache.dirty"),
		Hits:       mx.Counter(name, "pcache.hit").Owned(&c.acct.CacheHits),
		Misses:     mx.Counter(name, "pcache.miss").Owned(&c.acct.CacheMisses),
		ReadAheads: mx.Counter(name, "pcache.readahead").Owned(&c.acct.CacheReadAheads),
		WBBytes:    mx.Counter(name, "pcache.wb.bytes").Owned(&c.acct.WriteBehindBytes),
		Recalls:    mx.Counter(name, "pcache.recall"),
	}
}

// setMetrics (re)binds the manager's lease counters, which write through
// to its Acct; newManager binds them.
func (m *Manager) setMetrics(mx *metrics.Registry) {
	name := m.node.Name
	m.mx = managerMetrics{
		leaseGrants:  mx.Counter(name, "lease.grant").Owned(&m.acct.LeaseGrants),
		leaseRecalls: mx.Counter(name, "lease.recall").Owned(&m.acct.LeaseRecalls),
	}
}

// EnableMetrics attaches a metrics registry to every layer of the
// cluster — the fabric's ports, every adapter, every disk, every daemon,
// every client, and the manager — and returns it. Sampling is bucketed on
// the virtual clock (no sampler events), storage is per node, and export
// order is canonical, so an enabled registry never changes the timeline
// and its output is byte-identical at any shard count x GOMAXPROCS.
// Attaching replaces any previous registry; detach with DisableMetrics.
// Call while the engine is idle.
func (c *Cluster) EnableMetrics(cfg metrics.Config) *metrics.Registry {
	c.Metrics = metrics.NewRegistry(cfg)
	c.Metrics.RegisterNodes(c.names...)
	c.attach()
	return c.Metrics
}

// DisableMetrics detaches the registry from every layer, restoring the
// zero-cost no-op sinks. The old registry (and its recorded series)
// stays readable.
func (c *Cluster) DisableMetrics() {
	c.Metrics = nil
	c.attach()
}
