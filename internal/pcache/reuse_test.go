package pcache

import (
	"reflect"
	"slices"
	"testing"

	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// TestReuseReadsAsFresh: a cache that evicted — so its clock hand moved —
// confirmed a stride, held a write lease and was closed is rebuilt by Reuse
// for another file. The rebuilt record keeps its mutex and equals a fresh
// New's for that file in every other field but the arena's address: as
// many frames, all empty, an empty page table, empty scratch, and the same
// clock hand, detector, lease mode, gauge samples and dirty count. A record
// still open, one of another client and one with too few frames are not
// rebuilt.
func TestReuseReadsAsFresh(t *testing.T) {
	c := newCluster(t, 2, 2)
	app(t, c, func(p *sim.Proc) {
		cl := c.Clients[0]
		cfg := testCfg()
		ps := cfg.PageSize
		old := New(cl.Open(p, "a"), cfg)
		addr, _ := fill(cl, 1024, 1)
		for i := range int64(5) {
			sim.Must(old.Read(p, addr, 1024, (1+3*i)*ps))
		}
		for i := range 3 * int64(cfg.Pages) {
			sim.Must(old.Write(p, addr, 1024, i*ps))
		}
		if old.clockHand == 0 || old.mode != leaseWrite || cl.Acct().CacheReadAheads == 0 {
			t.Fatalf("the script left clock hand %d, lease mode %d, %d pages read ahead", old.clockHand, old.mode, cl.Acct().CacheReadAheads)
		}
		if again := Reuse(old, cl.Open(p, "b"), cfg); again == old {
			t.Error("an open record was rebuilt")
		} else {
			sim.Must(again.Close(p))
		}
		mu := old.mu
		sim.Must(old.Close(p))

		fh := cl.Open(p, "b")
		rebuilt := Reuse(old, fh, cfg)
		fresh := New(fh, cfg)
		if rebuilt != old || rebuilt.mu != mu {
			t.Fatal("a closed record was not rebuilt with its mutex")
		}
		if !slices.Equal(rebuilt.frames, fresh.frames) || len(rebuilt.table) != 0 {
			t.Errorf("rebuilt with %d frames, %d pages; fresh %d frames", len(rebuilt.frames), len(rebuilt.table), len(fresh.frames))
		}
		if n := len(rebuilt.pnos) + len(rebuilt.fsegs) + len(rebuilt.faccs) + len(rebuilt.fill) + len(rebuilt.fillFrames); n != 0 {
			t.Errorf("rebuilt with %d scratch entries", n)
		}
		if rebuilt.arena.Len != fresh.arena.Len || rebuilt.arena.Addr == fresh.arena.Addr {
			t.Errorf("arenas %+v rebuilt, %+v fresh", rebuilt.arena, fresh.arena)
		}
		got, want := *rebuilt, *fresh
		for _, f := range []*File{&got, &want} {
			f.arena.Addr, f.mu, f.hook = 0, nil, pvfs.RecallHook{}
			f.frames, f.table, f.pnos, f.fsegs, f.faccs, f.fill, f.fillFrames = nil, nil, nil, nil, nil, nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rebuilt %+v\nfresh   %+v", got, want)
		}
		sim.Must(fresh.Close(p))
		sim.Must(rebuilt.Close(p))

		big := cfg
		big.Pages *= 2
		for i, f := range []*File{Reuse(rebuilt, c.Clients[1].Open(p, "b"), cfg), Reuse(rebuilt, fh, big)} {
			if f == rebuilt {
				t.Errorf("%s record was rebuilt", []string{"another client's", "a too small"}[i])
			}
			sim.Must(f.Close(p))
		}
	})
}
