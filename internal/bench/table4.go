package bench

import (
	"slices"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/workload"
)

// table4Result carries one registration case's measurements.
type table4Result struct {
	nosync, syncBW float64
	regs           int64
	overheadUS     float64
}

// table4Rows labels Table 4's registration cases.
var table4Rows = []string{"Ideal", "Indiv.", "OGR", "OGR+Q"}

// table4 reproduces the paper's Table 4: the impact of Optimistic Group
// Registration on PVFS list I/O. A 2048x2048 integer array is block-
// distributed over 4 processes; each writes its 4 MB subarray (1024
// noncontiguous 4 kB rows in memory) contiguously to its own file region.
// One cell per registration case:
//
//	Ideal  — all registrations already in the pin-down cache
//	Indiv. — one registration/deregistration per row
//	OGR    — Optimistic Group Registration (one registration)
//	OGR+Q  — buffers from 11 separate arrays with 10 unallocated holes,
//	         forcing the optimistic attempt to fail and query the OS
var table4 = Experiment{
	ID:    "table4",
	Title: "Optimistic Group Registration impact on list I/O writes (Table 4)",
	paper: slices.Concat(
		column("nosync_MB_s", "without sync, Ideal > OGR > OGR+Q > Indiv.", table4Rows, 1010, 424, 950, 879),
		column("sync_MB_s", "with sync every case nears disk speed (the paper gives OGR and OGR+Q as about Ideal's)", table4Rows, 82, 73, 82, 82),
		column("regs", "registrations per process", table4Rows, 0, 1024, 1, 11),
		column("overhead_us", "deviation: we charge the published per-page cost in full; the testbed amortized large registrations better",
			table4Rows[1:], 5254, 227, 496),
	),
	header: []string{"case", "nosync_MB_s", "sync_MB_s", "regs", "overhead_us"},
	notes:  []string{"regs counts actual pin operations per run; overhead is registration+deregistration virtual time per run"},
	sweep: func(o RunOpts) []group {
		n := pick[int64](o.Short, 1024, 2048)
		return each(table4Rows,
			func(kind string) table4Result { return table4Case(kind, n) },
			func(t *Table, kind string, r table4Result) {
				t.Add(kind, r.nosync, r.syncBW, r.regs, r.overheadUS)
			})
	},
}

func table4Case(kind string, n int64) (r table4Result) {
	const ranks = 4
	elem := int64(4)
	perRank := (n / 2) * (n / 2) * elem
	total := int64(ranks) * perRank

	run := func(withSync bool) (float64, int64, float64) {
		f := newFixture(pvfs.DefaultConfig(), 4, ranks)
		defer f.close()
		opts := pvfs.OpOptions{Transfer: pvfs.ForceGather, Sieve: sieve.Never}
		switch kind {
		case "Ideal":
			opts.Reg = pvfs.RegCached
		case "Indiv.":
			opts.Reg = pvfs.RegIndividual
		default:
			opts.Reg = pvfs.RegOGR
		}

		// Build each rank's buffers up front.
		segsOf := make([][]ib.SGE, ranks)
		for i := 0; i < ranks; i++ {
			cl := f.c.Clients[i]
			if kind == "OGR+Q" {
				// Same buffer geometry as the subarray rows, but
				// spread over 11 arrays with 10 unallocated holes.
				rowLen := (n / 2) * elem
				segsOf[i] = holeySegs(cl, int(perRank/rowLen), rowLen, 11)
			} else {
				pat := workload.SubarrayWrite(n, 2, 2, i%2, i/2, elem)
				segsOf[i] = materialize(cl, pat, byte(i)).Segs
			}
		}

		if kind == "Ideal" {
			// Warm the pin-down caches with an unmeasured pass.
			f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
				fh := cl.Open(p, "warm")
				accs := []pvfs.OffLen{{Off: int64(rank.ID()) * perRank, Len: perRank}}
				sim.Must(fh.WriteList(p, segsOf[rank.ID()], accs, opts))
			})
		}

		var regs0, regT0 int64
		for _, cl := range f.c.Clients {
			regs0 += cl.HCA().Counters.Registrations
			regT0 += int64(cl.HCA().Counters.RegTime + cl.HCA().Counters.DeregTime)
		}
		elapsed := f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
			fh := cl.Open(p, "t4")
			accs := []pvfs.OffLen{{Off: int64(rank.ID()) * perRank, Len: perRank}}
			rank.Barrier(p)
			sim.Must(fh.WriteList(p, segsOf[rank.ID()], accs, opts))
			if withSync {
				fh.Sync(p)
			}
		})
		var regsN, regTN int64
		for _, cl := range f.c.Clients {
			regsN += cl.HCA().Counters.Registrations
			regTN += int64(cl.HCA().Counters.RegTime + cl.HCA().Counters.DeregTime)
		}
		// Report per-process registration counts and overhead, like the
		// paper.
		return bw(total, elapsed), (regsN - regs0) / ranks, float64(regTN-regT0) / 1000 / ranks
	}

	r.nosync, r.regs, r.overheadUS = run(false)
	r.syncBW, _, _ = run(true)
	return r
}

// holeySegs builds nseg buffers of segSize bytes spread over nArrays
// separate allocations with unallocated holes between them (the OGR+Q
// scenario). Within each array, buffers sit at a 2x stride — the same
// row-in-a-larger-array geometry as the subarray cases.
func holeySegs(cl *pvfs.Client, nseg int, segSize int64, nArrays int) []ib.SGE {
	per := (nseg + nArrays - 1) / nArrays
	stride := 2 * segSize
	var segs []ib.SGE
	for a := 0; a < nArrays && len(segs) < nseg; a++ {
		if a > 0 {
			cl.Space().Reserve(4) // unallocated hole
		}
		count := per
		if remaining := nseg - len(segs); count > remaining {
			count = remaining
		}
		base := cl.Space().Malloc(int64(count) * stride)
		for i := 0; i < count; i++ {
			seg := ib.SGE{Addr: base + mem.Addr(int64(i)*stride), Len: segSize}
			segs = append(segs, seg)
			data := make([]byte, segSize)
			for j := range data {
				data[j] = byte(a + i + j)
			}
			sim.Must(cl.Space().Write(seg.Addr, data))
		}
	}
	return segs
}
