package pvfs_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/metrics"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/stats"
)

// TestSnapshotFoldsEveryEntity runs a fault storm plus two clients
// contending for a cached file — so the manager (lease grants and
// recalls), the daemons (crash, restart, re-registration, aborts) and the
// clients (requests, retries, cache traffic) all hold counters of their
// own — and checks that Cluster.Snapshot's embedded protocol set is the
// field-by-field sum over those entities, that a snapshot minus itself is
// the zero value, and that none of it depends on the engine's shard count.
// A metrics registry is attached from the start, and each of the ten
// counters bound to an entity's own count must read the same total in the
// registry as in the snapshot: a site that counted only one side fails.
func TestSnapshotFoldsEveryEntity(t *testing.T) {
	var first string
	for _, shards := range []int{1, 2} {
		cfg := pvfs.DefaultConfig()
		// The storm without registration rejections: a declared-allocation
		// registration (the cache's fill path) has no pack fallback.
		cfg.Faults = &fault.Plan{
			Seed:        7,
			WRErrorRate: 0.02,
			Cuts:        []fault.Cut{{A: 4, B: 1, At: 200 * time.Microsecond, Dur: 400 * time.Microsecond}},
			Crashes:     []fault.Crash{{Server: 2, At: 300 * time.Microsecond, Down: 600 * time.Microsecond}},
		}
		cfg.Shards = shards
		c := pvfs.NewCluster(sim.NewEngine(), cfg, 4, 4)
		mx := c.EnableMetrics(metrics.Config{})
		for ci, cl := range c.Clients {
			c.Eng.GoOn(cl.Node().Group(), fmt.Sprintf("worker%d", ci), func(p *sim.Proc) {
				stormRank(t, p, cl, ci, len(c.Clients))
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}

		snap := c.Snapshot()
		var want stats.Acct
		sum := reflect.ValueOf(&want).Elem()
		for _, a := range c.EntityAccts() {
			av := reflect.ValueOf(a)
			for i := 0; i < sum.NumField(); i++ {
				sum.Field(i).SetInt(sum.Field(i).Int() + av.Field(i).Int())
			}
		}
		if snap.Acct != want {
			t.Errorf("shards=%d: snapshot protocol counters\n%+v\nare not the sum over entities\n%+v", shards, snap.Acct, want)
		}
		if snap.Acct != c.Acct() {
			t.Errorf("shards=%d: Snapshot and Acct disagree", shards)
		}
		for _, nonzero := range []struct {
			what string
			n    int64
		}{
			{"manager lease grants", snap.LeaseGrants}, {"manager lease recalls", snap.LeaseRecalls},
			{"daemon crashes", snap.Crashes}, {"daemon re-registrations", snap.IodRegistrations},
			{"client retries", snap.Retries}, {"client write requests", snap.WriteReqs},
			{"cache misses", snap.CacheMisses}, {"write-behind bytes", snap.WriteBehindBytes},
		} {
			if nonzero.n == 0 {
				t.Errorf("shards=%d: no %s; the fold over that entity class is not exercised", shards, nonzero.what)
			}
		}
		var regMisses int64
		for _, cl := range c.Clients {
			regMisses += cl.HCA().Counters.RegCacheMisses
		}
		for _, bound := range []struct {
			series string
			want   int64
		}{
			{"rpc.retry", snap.Retries}, {"rpc.timeout", snap.Timeouts},
			{"pcache.hit", snap.CacheHits}, {"pcache.miss", snap.CacheMisses},
			{"pcache.readahead", snap.CacheReadAheads}, {"pcache.wb.bytes", snap.WriteBehindBytes},
			{"lease.grant", snap.LeaseGrants}, {"lease.recall", snap.LeaseRecalls},
			{"ib.regcache.hit", snap.RegCacheHits}, {"ib.regcache.miss", regMisses},
		} {
			if got := mx.Current(bound.series); got != bound.want {
				t.Errorf("shards=%d: registry %s = %d, snapshot counts %d", shards, bound.series, got, bound.want)
			}
		}
		if d := snap.Sub(snap); d != (stats.Snapshot{}) {
			t.Errorf("shards=%d: s.Sub(s) = %+v, want the zero value", shards, d)
		}
		if got := fmt.Sprintf("%+v", snap); first == "" {
			first = got
		} else if got != first {
			t.Errorf("snapshot differs at shards=%d:\n%s\nvs shards=1:\n%s", shards, got, first)
		}
	}
}

// stormRank is one client's share: on the first two clients, conflicting
// cached writes and reads of one file; then on every client a strided list
// write, sync and read of the shared storm file.
func stormRank(t *testing.T, p *sim.Proc, cl *pvfs.Client, rank, ranks int) {
	const segLen, nSegs, stride = 4 << 10, 48, 16 << 10
	addr := cl.Space().Malloc(segLen * nSegs)
	if rank < 2 {
		const n = 48 << 10
		f := pcache.New(cl.Open(p, "cached"), pcache.Config{PageSize: 8 << 10, Pages: 16, DirtyHighWater: 8, ReadAhead: 4})
		for round := 0; round < 3; round++ {
			if err := f.Write(p, addr, n, 0); err != nil {
				t.Errorf("cn%d: cached write: %v", rank, err)
			}
			if err := f.Read(p, addr, n, 0); err != nil {
				t.Errorf("cn%d: cached read: %v", rank, err)
			}
		}
		if err := f.Close(p); err != nil {
			t.Errorf("cn%d: cached close: %v", rank, err)
		}
	}
	fh := cl.Open(p, "storm")
	var segs []ib.SGE
	var accs []pvfs.OffLen
	for i := 0; i < nSegs; i++ {
		segs = append(segs, ib.SGE{Addr: addr + mem.Addr(i*segLen), Len: segLen})
		accs = append(accs, pvfs.OffLen{Off: int64(rank)*segLen + int64(i*stride*ranks), Len: segLen})
	}
	if err := fh.WriteList(p, segs, accs, pvfs.OpOptions{}); err != nil {
		t.Errorf("cn%d: WriteList: %v", rank, err)
		return
	}
	fh.Sync(p)
	if err := fh.ReadList(p, segs, accs, pvfs.OpOptions{}); err != nil {
		t.Errorf("cn%d: ReadList: %v", rank, err)
	}
}
