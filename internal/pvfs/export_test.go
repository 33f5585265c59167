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
