package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/metrics"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// The cache round's geometry: 2 kB pieces, written at a 4 kB stride over
// the first pages of a rank's file and read at a two-page stride past them.
const (
	crPiece   = 2 << 10
	crWrites  = 48
	crReads   = 8
	crReadPg  = 8 // the first page read
	crPage    = 64 << 10
	crRanks   = 4
	crServers = 4
)

// cacheRound is a checkpoint round through the client page cache, the shape
// of the ckpt-cache workload: every rank opens its own file, attaches a
// cache, writes behind (the first write of a page misses and fills it),
// reads pages the writes never touched at a constant stride — three misses
// confirm the stride and the third fetches four pages ahead with it, which
// the next reads hit — syncs, which flushes the dirty pages as one list
// write, and dirties a page again. Then every rank opens its neighbour's
// file with a cache of its own and reads it, which recalls the neighbour's
// write lease: the neighbour's recall daemon flushes and invalidates its
// cache. Each rank detaches both caches, removes its file and empties its
// pin-down cache, and the round frees every client mapping it made, as the
// ledger's rounds do.
type cacheRound struct {
	f     *fixture
	names [crRanks]string
	src   [crRanks]mem.Addr
	wsegs [crRanks][]ib.SGE
	waccs []pvfs.OffLen
	raccs []pvfs.OffLen
	// fresh attaches every cache with pcache.New and detaches it with
	// Close; otherwise MPI-IO's EnableCache and DisableCache attach and
	// detach it, and a detached cache's record serves the next attach.
	fresh bool
	idle  bool
	marks [crRanks]mem.Addr
}

func newCacheRound(f *fixture, fresh bool) *cacheRound {
	r := &cacheRound{f: f, fresh: fresh}
	for i, cl := range f.c.Clients {
		r.names[i] = fmt.Sprintf("ckpt%d", i)
		r.src[i] = cl.Space().Malloc(crPiece)
		fillPattern(cl.Space(), []ib.SGE{{Addr: r.src[i], Len: crPiece}}, byte(i))
		r.wsegs[i] = []ib.SGE{{Addr: r.src[i], Len: crPiece}}
	}
	for i := 0; i < crWrites; i++ {
		r.waccs = append(r.waccs, pvfs.OffLen{Off: int64(i) * 2 * crPiece, Len: crPiece})
	}
	for i := 0; i < crReads; i++ {
		r.raccs = append(r.raccs, pvfs.OffLen{Off: int64(crReadPg+2*i) * crPage, Len: crPiece})
	}
	return r
}

func (r *cacheRound) attach(file *mpiio.File) *pcache.File {
	if r.fresh {
		return pcache.New(file.Handle(), pcache.DefaultConfig())
	}
	return file.EnableCache(pcache.DefaultConfig())
}

func (r *cacheRound) detach(p *sim.Proc, file *mpiio.File, cf *pcache.File) {
	if r.fresh {
		sim.Must(cf.Close(p))
		return
	}
	sim.Must(file.DisableCache(p))
}

// step runs one round and returns its virtual duration.
func (r *cacheRound) step() sim.Duration {
	f := r.f
	for i, cl := range f.c.Clients {
		r.marks[i] = cl.Space().Malloc(mem.PageSize)
	}
	d := f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		if r.idle {
			return
		}
		id := rank.ID()
		seg := r.wsegs[id]
		file := mpiio.Open(p, cl, rank, r.names[id])
		cf := r.attach(file)
		for i := range r.waccs {
			sim.Must(cf.WriteList(p, seg, r.waccs[i:i+1]))
		}
		for i := range r.raccs {
			sim.Must(cf.ReadList(p, seg, r.raccs[i:i+1]))
		}
		sim.Must(cf.Sync(p))
		sim.Must(cf.WriteList(p, seg, r.waccs[:1]))
		rank.Barrier(p)
		peer := mpiio.Open(p, cl, rank, r.names[(id+1)%crRanks])
		pc := r.attach(peer)
		for i := range r.waccs[:crReads] {
			sim.Must(pc.ReadList(p, seg, r.waccs[i:i+1]))
		}
		r.detach(p, peer, pc)
		rank.Barrier(p)
		r.detach(p, file, cf)
		rank.Barrier(p)
		mpiio.Delete(p, cl, r.names[id])
		sim.Must(cl.RegCache().Flush(p))
	})
	for i, cl := range f.c.Clients {
		end := cl.Space().Malloc(mem.PageSize)
		cl.Space().Free(mem.Extent{Addr: r.marks[i], Len: int64(end-r.marks[i]) + mem.PageSize})
	}
	return d
}

// TestCacheRoundAllocFree holds a cache round to the steady-state contract.
// A disabled cache's record goes back to its client and the next
// EnableCache rebuilds it, with its frame and page tables, its scratch and
// its mutex; the slow paths sort in place; the recall hook lives in the
// record; the lease requests, grants, recalls and acks ride pooled records;
// and the manager's lease state of an unlinked file goes back to a free
// list. So all a warm round allocates is per rank the mpiio.File and
// pvfs.FileHandle of its two opens, and per new file the stripe-file name
// each I/O server makes when it first opens the file, which the sync's
// fan-out makes every server do. The count is exact: an open has nothing
// to close it, and a name lives as long as its file.
func TestCacheRoundAllocFree(t *testing.T) {
	const (
		opens = crRanks * 2 * 2     // two opens a rank: mpiio.File, pvfs.FileHandle
		names = crRanks * crServers // one stripe name per file per server
		want  = opens + names
	)
	f := newFixture(pvfs.DefaultConfig(), crServers, crRanks)
	defer f.close()
	r := newCacheRound(f, false)
	r.step() // the records, tables, pools and free lists warm up
	r.step()
	acct0 := f.c.Acct()
	fresh0 := f.HostCost().Fresh
	mallocs := testing.AllocsPerRun(4, func() { r.step() })
	fresh := f.HostCost().Fresh - fresh0
	acct := f.c.Acct()
	r.idle = true
	mallocs -= testing.AllocsPerRun(4, func() { r.step() })
	t.Logf("%.0f mallocs a round, %d pool misses over 5 rounds", mallocs, fresh)
	// The round did what it says, every time: misses, read-ahead, a
	// coalesced flush and a recall per rank.
	if n := acct.LeaseRecalls - acct0.LeaseRecalls; n != 5*crRanks {
		t.Errorf("%d lease recalls in 5 rounds, want %d", n, 5*crRanks)
	}
	if n := acct.CoalescedFlushes - acct0.CoalescedFlushes; n < 5*crRanks {
		t.Errorf("%d coalesced flushes in 5 rounds, want at least %d", n, 5*crRanks)
	}
	if acct.CacheReadAheads == acct0.CacheReadAheads || acct.CacheMisses == acct0.CacheMisses {
		t.Errorf("no read-ahead or no miss in 5 rounds: %+v", acct)
	}
	if fresh != 0 {
		t.Errorf("%d pool misses in 5 rounds, want 0", fresh)
	}
	if raceEnabled {
		return // the detector's runtime allocates too
	}
	if mallocs != want {
		t.Errorf("%.0f mallocs a round, want %d: %d for the opens, %d for the stripe names", mallocs, want, opens, names)
	}
}

// TestCacheReuseLikeFresh runs three cache rounds twice, once with a fresh
// pcache.New for every cache and once through EnableCache, whose second and
// third rounds rebuild the records the first one disabled, on one engine
// shard and on four. Every round takes the same virtual time, and the
// cluster's counters and its whole metrics dump — the page-cache gauges
// included — read the same.
func TestCacheReuseLikeFresh(t *testing.T) {
	type outcome struct {
		rounds []sim.Duration
		acct   any
		snap   any
		dump   []byte
	}
	run := func(shards int, fresh bool) outcome {
		cfg := pvfs.DefaultConfig()
		cfg.Shards = shards
		f := newFixture(cfg, crServers, crRanks)
		defer f.close()
		mx := f.c.EnableMetrics(metrics.Config{})
		r := newCacheRound(f, fresh)
		var o outcome
		for range 3 {
			o.rounds = append(o.rounds, r.step())
		}
		o.acct, o.snap = f.c.Acct(), f.c.Snapshot()
		var buf bytes.Buffer
		sim.Must(mx.WriteJSON(&buf, f.c.Eng.Now()))
		o.dump = buf.Bytes()
		return o
	}
	for _, shards := range []int{1, 4} {
		fresh, reused := run(shards, true), run(shards, false)
		if !reflect.DeepEqual(fresh.rounds, reused.rounds) {
			t.Errorf("shards=%d: round times: fresh records %v, reused %v", shards, fresh.rounds, reused.rounds)
		}
		if !reflect.DeepEqual(fresh.acct, reused.acct) {
			t.Errorf("shards=%d: counters: fresh records %+v, reused %+v", shards, fresh.acct, reused.acct)
		}
		if !reflect.DeepEqual(fresh.snap, reused.snap) {
			t.Errorf("shards=%d: snapshot: fresh records %+v, reused %+v", shards, fresh.snap, reused.snap)
		}
		if !bytes.Equal(fresh.dump, reused.dump) {
			t.Errorf("shards=%d: the metrics dumps differ: %d bytes with fresh records, %d reused", shards, len(fresh.dump), len(reused.dump))
		}
	}
}
