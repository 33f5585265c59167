package pvfs_test

import (
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// TestStorageOnFirstTouch: building a cluster makes no storage — the
// staging buffers, each connection's Fast-RDMA and receive buffers are
// reserved and registered, not backed — and neither does an MPI-IO Open
// whose data-sieving buffer is never sieved through. A daemon then lends a
// gathered 8 kB list write and read the 8 kB pool class, not a 4 MB
// staging-sized buffer.
func TestStorageOnFirstTouch(t *testing.T) {
	c := pvfs.NewCluster(sim.NewEngine(), pvfs.DefaultConfig(), 4, 4)
	spaces := map[string]*mem.AddrSpace{}
	for _, s := range c.Servers {
		spaces[s.HCA().Node().Name] = s.HCA().Space()
	}
	for _, cl := range c.Clients {
		spaces[cl.Node().Name] = cl.Space()
	}
	for name, sp := range spaces {
		if hc := sp.HostCost(); hc.Fresh+hc.Recycled != 0 || hc.BytesCleared != 0 {
			t.Errorf("%s: set-up backed %d mappings and cleared %d bytes, want none", name, hc.Fresh+hc.Recycled, hc.BytesCleared)
		}
	}
	const n = 8 << 10
	cl := c.Clients[0]
	world := mpiio.NewWorld(c)
	c.Eng.GoOn(cl.Node().Group(), "app", func(p *sim.Proc) {
		before := cl.Space().HostCost()
		f := mpiio.Open(p, cl, world.Rank(0), "touch")
		if hc := cl.Space().HostCost(); hc != before {
			t.Errorf("mpiio.Open cost the client %+v, want nothing", hc.Sub(before))
		}
		src := cl.Space().Malloc(n)
		sim.Must(cl.Space().Write(src, make([]byte, n)))
		segs := []ib.SGE{{Addr: src, Len: n / 2}, {Addr: src + n/2, Len: n / 2}}
		accs := []pvfs.OffLen{{Off: 0, Len: n / 2}, {Off: n, Len: n / 2}}
		opts := pvfs.OpOptions{Transfer: pvfs.ForceGather}
		if err := f.Handle().WriteList(p, segs, accs, opts); err != nil {
			t.Fatal(err)
		}
		if err := f.Handle().ReadList(p, segs, accs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var lent int64
	for _, s := range c.Servers {
		lent += s.ScratchCost().BytesCleared
		if hc := s.HCA().Space().HostCost(); hc.Fresh+hc.Recycled != 0 {
			t.Errorf("%s: %d staging or receive buffers backed on first touch, want none", s.HCA().Node().Name, hc.Fresh+hc.Recycled)
		}
	}
	if lent == 0 || lent > n {
		t.Errorf("the daemons lent %d bytes of fresh storage to an 8 kB write and read, want at most the 8 kB class", lent)
	}
}
