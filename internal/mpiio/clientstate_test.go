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

// TestParkedCacheDropsFile: a File holds its PVFS handle, and a cache
// attached to it points at that handle. Once DisableCache parks the cache's
// record with the client, the record holds no handle, so a File its caller
// has dropped is collected while the client and the record live on.
func TestParkedCacheDropsFile(t *testing.T) {
	c, w := fixture(t, 2, 1)
	defer c.Eng.Shutdown()
	var file weak.Pointer[File]
	spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		f := Open(p, cl, rank, "f")
		file = weak.Make(f)
		f.EnableCache(pcache.DefaultConfig())
		sim.Must(f.DisableCache(p))
		if n := len(stateOf(cl).caches); n != 1 || stateOf(cl).caches[0].Handle() != nil {
			t.Errorf("%d parked cache records, the first holding a handle: want 1 holding none", n)
		}
	})
	for range 10 {
		runtime.GC()
		if file.Value() == nil {
			return
		}
	}
	t.Error("a dropped File is still live: its parked cache record keeps it")
}
