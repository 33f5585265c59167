package bench

import (
	"testing"

	"pvfsib/internal/disk"
	"pvfsib/internal/ib"
	"pvfsib/internal/localfs"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// BenchmarkFig3Cell measures one full Figure 3 cell — engine, network,
// HCAs, and all six transfer schemes for a 512x512 array — end to end.
// This is the unit of work the parallel scheduler distributes, so its
// ns/op and allocs/op are the numbers the engine and pooling work targets.
func BenchmarkFig3Cell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig3RowOn(512, ib.DefaultParams(), simnet.DefaultParams())
	}
}

// benchSieve runs the daemon's sieve over the benchmark ledger's kSieve
// geometry — 128 accesses of 2 kB with 50 % holes against a cached 8 MB
// file — with a plan scratch, as the daemon calls it: 0 B/op, neither
// payload nor per-request plan.
func benchSieve(b *testing.B, write bool) {
	accs := make([]sieve.Access, 128)
	for i := range accs {
		accs[i] = sieve.Access{Off: int64(i) * (4 << 10), Len: 2 << 10}
	}
	data := make([]byte, 128*(2<<10))
	eng := sim.NewEngine()
	fs := localfs.New(eng, disk.New(eng, "disk", disk.DefaultParams()), localfs.DefaultParams())
	params := sieve.ModelFromFS(fs, ib.DefaultParams().MemcpyBandwidth)
	params.Plan = new(sieve.Plan)
	b.ReportAllocs()
	eng.Go("bench", func(p *sim.Proc) {
		f := fs.Open(p, "k")
		f.WriteAt(p, 0, make([]byte, 8<<20))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if write {
				sieve.Write(p, f, accs, data, params, sieve.Auto, nil)
			} else {
				sieve.ReadInto(p, f, accs, data, params, sieve.Auto, nil)
			}
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSieveRead128(b *testing.B)  { benchSieve(b, false) }
func BenchmarkSieveWrite128(b *testing.B) { benchSieve(b, true) }

// BenchmarkListRead1MiB is one client's 256-region, 1 MiB list read on the
// paper's 4+4 cluster, end to end through client, wire, daemon, sieve and
// local file system.
func BenchmarkListRead1MiB(b *testing.B) {
	f := newFixture(pvfs.DefaultConfig(), 4, 4)
	defer f.close()
	cl := f.c.Clients[0]
	buf := materialize(cl, interleaved(256, 4<<10)(0, 2), 1)
	b.ReportAllocs()
	f.c.Eng.GoOn(cl.Node().Group(), "bench", func(p *sim.Proc) {
		fh := cl.Open(p, "bench")
		sim.Must(fh.WriteList(p, buf.Segs, buf.Accs, pvfs.OpOptions{}))
		sim.Must(fh.ReadList(p, buf.Segs, buf.Accs, pvfs.OpOptions{}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Must(fh.ReadList(p, buf.Segs, buf.Accs, pvfs.OpOptions{}))
		}
	})
	if err := f.c.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkListOp is the Multiple I/O unit of work — a 3 kB write and a 3 kB
// read inside one stripe, each one list operation and one request — end to
// end on the paper's 4+4 cluster: split, chunk, record, wire, daemon, sieve,
// file, reply. 0 allocs/op: TestListOpAllocFree holds it there.
func BenchmarkListOp(b *testing.B) {
	f := newFixture(pvfs.DefaultConfig(), 4, 4)
	defer f.close()
	cl := f.c.Clients[0]
	const n = 3 << 10
	addr := cl.Space().Malloc(n)
	opts := pvfs.OpOptions{Sieve: sieve.Never}
	b.ReportAllocs()
	f.c.Eng.GoOn(cl.Node().Group(), "bench", func(p *sim.Proc) {
		fh := cl.Open(p, "bench")
		sim.Must(fh.Write(p, addr, n, 1<<10, opts))
		sim.Must(fh.Read(p, addr, n, 1<<10, opts))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Must(fh.Write(p, addr, n, 1<<10, opts))
			sim.Must(fh.Read(p, addr, n, 1<<10, opts))
		}
	})
	if err := f.c.Run(); err != nil {
		b.Fatal(err)
	}
}
