package bench

import (
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
	ID:     "table4",
	Title:  "Optimistic Group Registration impact (Table 4)",
	table:  "Optimistic Group Registration impact (paper: Ideal 1010/82, Indiv 424/73, OGR 950/~82, OGR+Q 879/~82 MB/s; regs 0/1024/1/11)",
	header: []string{"case", "nosync_MB_s", "sync_MB_s", "regs", "overhead_us"},
	notes:  []string{"regs counts actual pin operations per run; overhead is registration+deregistration virtual time per run"},
	sweep: func(o RunOpts) []group {
		n := pick[int64](o.Short, 1024, 2048)
		return each([]string{"Ideal", "Indiv.", "OGR", "OGR+Q"},
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

	run := func(withSync bool) (float64, int64, float64, error) {
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

		// The engine is cooperative and single-threaded, so capturing the
		// first rank failure in a shared variable is race-free.
		var firstErr error
		rankErr := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}

		if kind == "Ideal" {
			// Warm the pin-down caches with an unmeasured pass.
			f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
				fh := cl.Open(p, "warm")
				accs := []pvfs.OffLen{{Off: int64(rank.ID()) * perRank, Len: perRank}}
				rankErr(fh.WriteList(p, segsOf[rank.ID()], accs, opts))
			})
			if firstErr != nil {
				return 0, 0, 0, firstErr
			}
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
			if err := fh.WriteList(p, segsOf[rank.ID()], accs, opts); err != nil {
				rankErr(err)
				return
			}
			if withSync {
				fh.Sync(p)
			}
		})
		if firstErr != nil {
			return 0, 0, 0, firstErr
		}
		var regsN, regTN int64
		for _, cl := range f.c.Clients {
			regsN += cl.HCA().Counters.Registrations
			regTN += int64(cl.HCA().Counters.RegTime + cl.HCA().Counters.DeregTime)
		}
		// Report per-process registration counts and overhead, like the
		// paper.
		return bw(total, elapsed), (regsN - regs0) / ranks, float64(regTN-regT0) / 1000 / ranks, nil
	}

	var err error
	r.nosync, r.regs, r.overheadUS, err = run(false)
	sim.Must(err)
	r.syncBW, _, _, err = run(true)
	sim.Must(err)
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
