package pvfs

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/sim"
	"pvfsib/internal/stats"
)

// EntityAccts exposes every entity's own protocol counters to external
// tests, in Cluster.Acct's fold order: manager, servers, clients.
func (c *Cluster) EntityAccts() []stats.Acct {
	out := []stats.Acct{c.Manager.acct}
	for _, s := range c.Servers {
		out = append(out, s.acct)
	}
	for _, cl := range c.Clients {
		out = append(out, cl.acct)
	}
	return out
}

// ScratchCost exposes what the daemon's payload pool has cost the host to
// external tests: its misses are the storage lent to requests.
func (s *Server) ScratchCost() sim.HostCost { return s.scratch.HostCost() }

// Under go test a recycled record, a released operation plan and a
// recycled wire record with its staging bytes are overwritten, so that any
// use after release — a server reading a request's regions after its handler
// recycled it, a chunk outliving its plan, a scatter from a recycled read
// response — shows as a failed operation or a differing byte instead of
// passing on stale but plausible values.
func init() { sim.PoisonReleased = true }

// census sums, pool by pool, what the cluster's pools handed out and did not
// get back: every shard's free lists of events, carriers, messages, wire
// records and protocol records, every adapter's reply mailboxes, the staging
// and scratch buffers, every file system's loans, every client's operation
// plans and pin-down cache references, and the spans not ended.
func (c *Cluster) census() map[string]int64 {
	out := map[string]int64{}
	add := func(pool string, n int64) { out[pool] += n }
	c.Eng.Census(add)
	c.Net.Census(add)
	ib.Census(c.Net, c.Eng.NumShards(), add)
	for i := range c.recs {
		add("pvfs.records", c.recs[i].Out())
	}
	c.Manager.hca.Census(add)
	for _, s := range c.Servers {
		s.hca.Census(add)
		s.staging.Census(add)
		s.fs.Census(add)
		add("pvfs.iod-scratch", s.scratch.Out())
	}
	for _, cl := range c.Clients {
		cl.hca.Census(add)
		add("pvfs.plans", cl.plans.Out())
		cl.cache.Census(add)
	}
	add("trace.open", int64(c.Spans.Open()))
	return out
}
