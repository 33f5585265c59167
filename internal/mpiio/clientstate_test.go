//go:build go1.24

package mpiio

import (
	"runtime"
	"testing"
	"weak"

	"pvfsib/internal/mpi"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// TestClientStateDiesWithClient: every rank caches its file and disables the
// cache, so its client keeps the record for the next EnableCache — a record
// that points back at the client. Once the cluster is shut down and dropped,
// the clients are collected all the same.
func TestClientStateDiesWithClient(t *testing.T) {
	var clients []weak.Pointer[pvfs.Client]
	func() {
		c, w := fixture(t, 2, 2)
		for _, cl := range c.Clients {
			clients = append(clients, weak.Make(cl))
		}
		spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
			f := Open(p, cl, rank, "f")
			f.EnableCache(pcache.DefaultConfig())
			sim.Must(f.DisableCache(p))
			if n := len(stateOf(cl).caches); n != 1 {
				t.Errorf("%d idle cache records, want 1", n)
			}
		})
		c.Eng.Shutdown()
	}()
	live := len(clients)
	for range 10 {
		runtime.GC()
		live = 0
		for _, w := range clients {
			if w.Value() != nil {
				live++
			}
		}
		if live == 0 {
			return
		}
	}
	t.Errorf("%d of %d clients still live after their cluster was dropped", live, len(clients))
}
