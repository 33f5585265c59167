package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// TestFaultStormEventBudget re-arms a fault plan every round, as the
// fault-storm workload does: four ranks list-write 64 strided 4 kB pieces
// each, sync and read them back while the round's plan injects completion
// errors and registration failures, cuts a client–server link and crashes
// an I/O daemon.
//
//   - The rounds' virtual times and fault tallies are the same at one
//     engine shard and at four, and the last round reads back what it
//     wrote: every plan re-arms the cluster's one injector, and each
//     stream seeds itself for a plan on the shard that first draws from it
//     under that plan.
//   - On one shard a warm round — every plan armed once before, so the
//     injector's streams, the generators and every pool have grown —
//     allocates nothing beyond what spawning the ranks costs: the plan
//     re-arms the injector in place, a record a fault discards goes back
//     to its pool, an injected error is a shared value, a retried attempt
//     formats nothing and a crash clears the daemon's file table instead
//     of remaking it. On four shards a round also refills the pools that
//     faults drain on one shard and grow on another, a count that drifts
//     from round to round, so it is not held.
func TestFaultStormEventBudget(t *testing.T) {
	const (
		pieces = 64
		piece  = 4 << 10
		nPlans = 5
		budget = 0
	)
	type outcome struct {
		elapsed sim.Duration
		faults  fault.Counters
	}
	run := func(shards int) (outs []outcome, mallocs float64) {
		cfg := pvfs.DefaultConfig()
		cfg.Shards = shards
		f := newFixture(cfg, 4, 4)
		defer f.close()
		n := f.w.Size()
		src, dst := make([]buffer, n), make([]buffer, n)
		for r, cl := range f.c.Clients {
			s, d := cl.Space().Malloc(2*pieces*piece), cl.Space().Malloc(2*pieces*piece)
			for i := 0; i < pieces; i++ {
				// Strided memory (one piece per two) and a file interleaved
				// piece by piece across the ranks.
				src[r].Segs = append(src[r].Segs, ib.SGE{Addr: s + mem.Addr(2*i*piece), Len: piece})
				dst[r].Segs = append(dst[r].Segs, ib.SGE{Addr: d + mem.Addr(2*i*piece), Len: piece})
				src[r].Accs = append(src[r].Accs, pvfs.OffLen{Off: int64(i*n+r) * piece, Len: piece})
			}
			fillPattern(cl.Space(), src[r].Segs, byte(r))
		}
		plans := make([]*fault.Plan, nPlans)
		for k := range plans {
			plans[k] = &fault.Plan{
				Seed:        int64(k + 1),
				WRErrorRate: 0.02,
				RegFailRate: 0.2,
				Cuts: []fault.Cut{{
					A:  int(f.c.Clients[k%n].Node().ID),
					B:  int(f.c.Servers[(k+1)%4].HCA().NodeID()),
					At: 200 * time.Microsecond, Dur: 400 * time.Microsecond,
				}},
				Crashes: []fault.Crash{{Server: 1 + k%3, At: 300 * time.Microsecond, Down: 600 * time.Microsecond}},
			}
		}
		files := make([]*mpiio.File, n)
		var plan *fault.Plan // nil: the ranks open their files, or idle
		pass := func() sim.Duration {
			return f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
				id := rank.ID()
				if files[id] == nil {
					files[id] = mpiio.Open(p, cl, rank, "storm")
				}
				if plan == nil {
					return
				}
				fh := files[id].Handle()
				sim.Must(fh.WriteList(p, src[id].Segs, src[id].Accs, pvfs.OpOptions{}))
				fh.Sync(p)
				sim.Must(fh.ReadList(p, dst[id].Segs, src[id].Accs, pvfs.OpOptions{}))
			})
		}
		k := 0
		round := func() outcome {
			plan = plans[k%nPlans]
			k++
			inj := f.c.AttachFaults(plan)
			o := outcome{elapsed: pass()}
			o.faults = inj.Totals()
			f.c.AttachFaults(nil)
			return o
		}
		pass()
		for range nPlans {
			outs = append(outs, round())
		}
		for r, cl := range f.c.Clients {
			want, got := make([]byte, piece), make([]byte, piece)
			for i, s := range dst[r].Segs {
				sim.Must(cl.Space().ReadInto(src[r].Segs[i].Addr, want))
				sim.Must(cl.Space().ReadInto(s.Addr, got))
				if !bytes.Equal(got, want) {
					t.Errorf("shards=%d: rank %d read back other bytes than it wrote in piece %d", shards, r, i)
					break
				}
			}
		}
		if raceEnabled || shards > 1 {
			return outs, 0 // the detector's runtime allocates too
		}
		mallocs = testing.AllocsPerRun(4, func() { round() })
		plan = nil
		mallocs -= testing.AllocsPerRun(4, func() { pass() })
		return outs, mallocs
	}
	want, mallocs := run(1)
	var total fault.Counters
	for _, o := range want {
		total.WRErrors += o.faults.WRErrors
		total.RegFailures += o.faults.RegFailures
		total.Drops += o.faults.Drops
	}
	if total.WRErrors == 0 || total.RegFailures == 0 || total.Drops == 0 {
		t.Fatalf("the plans injected %v: the rounds do not storm", total)
	}
	if got, _ := run(4); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rounds at 4 shards %v, at 1 shard %v", got, want)
	}
	if !raceEnabled && mallocs != budget {
		t.Errorf("a warm storm round allocates %.2f times beyond its ranks, want %d", mallocs, budget)
	}
}
