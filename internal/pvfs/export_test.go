package pvfs

import "pvfsib/internal/stats"

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

// Under go test a recycled record and a released operation plan are
// overwritten, so that any use after release — a server reading a request's
// regions after its handler recycled it, a chunk outliving its plan — shows
// as a failed operation or a differing byte instead of passing on stale but
// plausible values.
func init() { poisonReleased = true }

// recordsOut is the number of records taken from the cluster's pools and
// not recycled.
func (c *Cluster) recordsOut() int64 {
	var n int64
	for i := range c.recs {
		n += c.recs[i].taken - c.recs[i].recycled
	}
	return n
}
