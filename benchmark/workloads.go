package main

import (
	"fmt"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	patterns "pvfsib/internal/workload"
)

// workloads lists the benchmark's workloads; the names are fixed, later
// issues cite them. Each why is copied into BENCHMARK.json.
var workloads = []*workload{
	{
		name:       "blockcol-write",
		why:        "Fig. 6 shape, strided file from one buffer, sync: disk-bound, stresses server dispatch, sieve, localfs, disk; bypasses ogr and registration",
		virtCycles: 2,
		build:      buildBlockcolWrite,
	},
	{
		name:       "blockcol-read",
		why:        "Fig. 7 shape, cached and after DropCaches: the read-side twin (sieve reads, server-to-client RDMA, read-ahead), so a write-path gain that costs reads shows",
		virtCycles: 2,
		build:      buildBlockcolRead,
	},
	{
		name:       "subarray-xfer",
		why:        "Fig. 3 / Table 4 shape, noncontiguous memory to a contiguous cached file: stresses mem, ogr, ib registration and gather/scatter, simnet; bypasses sieve and disk",
		virtCycles: 2,
		build:      buildSubarrayXfer,
	},
	{
		name:       "tile-multiple",
		why:        "Fig. 8 shape with Multiple I/O, one request per 3 kB run: smallest bytes per event, so per-request pvfs/ib/sim cost dominates host time; OGR/ADS changes must show nothing",
		virtCycles: 8,
		build:      buildTileMultiple,
	},
	{
		name:       "btio-app",
		why:        "Table 5 shape, BTIO class A dumps without compute: the application, and the only workload where mpi collectives and mpiio two-phase I/O do real work",
		virtCycles: 2,
		build:      buildBTIO,
	},
	{
		name:       "ckpt-cache",
		why:        "strided 2 kB checkpoint ops through the client page cache with a lease recall: pcache does the work, which every other workload bypasses",
		virtCycles: 1,
		build:      buildCkptCache,
	},
	{
		name:       "fault-storm",
		why:        "the faults storm cell repeated under fixed fault plans: retry, timeout, QP reset, pack fallback and iod restart do the work; guards the failed-operation share",
		virtCycles: 1,
		build:      buildFaultStorm,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// blockColSizes are the array edge lengths the block-column and subarray
// workloads cycle through (Figures 6 and 7 without the 8192 point, which
// alone would cost more host time than the rest of the cycle together).
var blockColSizes = []int64{512, 1024, 2048, 4096}

// blockColReadMethods are the access methods blockcol-read rotates through.
var blockColReadMethods = []mpiio.Method{mpiio.ListIOADS, mpiio.ListIO, mpiio.DataSieving}

// buildBlockcolWrite is the Figure 6 shape: an n x n array of ints in a
// block-column view; each rank writes its column (contiguous memory,
// strided file) and syncs. A cycle is every (n, method) pair once, in
// seeded order, each on a fresh file.
func buildBlockcolWrite(b *bench) func(k int) {
	methods := []mpiio.Method{mpiio.ListIO, mpiio.ListIOADS}
	nmax := blockColSizes[len(blockColSizes)-1]
	b.allocBufs(nmax * nmax * 4 / nRanks)
	return func(k int) {
		r := newRNG(b.seed, k)
		for _, j := range r.perm(len(blockColSizes) * len(methods)) {
			n, m := blockColSizes[j/len(methods)], methods[j%len(methods)]
			img := b.image("bc", n*n*4)
			salt := r.next()
			b.round(func(x *rankCtx) {
				pat := patterns.BlockColumn(n, nRanks, x.id, 4)
				file := x.open("bc")
				segs := []ib.SGE{{Addr: x.st.buf, Len: pat.Bytes()}}
				stream := x.fill(segs, salt)
				x.rank.Barrier(x.p)
				x.write(file, img, m, segs, pat.File, stream)
				x.sync(file)
				x.finish("bc", file.Handle(), img)
			})
		}
	}
}

// buildBlockcolRead is the Figure 7 shape on files populated in set-up. A
// cycle is every (n, method) pair once, in seeded order; each pair reads
// the file after DropCaches and then again from the servers' caches.
func buildBlockcolRead(b *bench) func(k int) {
	methods := blockColReadMethods
	nmax := blockColSizes[len(blockColSizes)-1]
	b.allocBufs(nmax * nmax * 4 / nRanks)
	files := make([][nRanks]*mpiio.File, len(blockColSizes))
	name := func(n int64) string { return fmt.Sprintf("bcr-%d", n) }
	pop := newRNG(b.seed, -1)
	for i, n := range blockColSizes {
		img := b.image(name(n), n*n*4)
		salt := pop.next()
		b.ranks(func(x *rankCtx) {
			pat := patterns.BlockColumn(n, nRanks, x.id, 4)
			f := x.open(name(n))
			files[i][x.id] = f
			segs := []ib.SGE{{Addr: x.st.buf, Len: pat.Bytes()}}
			stream := x.fill(segs, salt)
			if err := f.Write(x.p, mpiio.ListIO, segs, pat.File); err != nil {
				b.problem("populate: %v", err)
			}
			refWrite(img, pat.File, stream)
			f.Sync(x.p)
		})
	}
	return func(k int) {
		r := newRNG(b.seed, k)
		for _, j := range r.perm(len(blockColSizes) * len(methods)) {
			i, m := j/len(methods), methods[j%len(methods)]
			n := blockColSizes[i]
			img := b.images[name(n)]
			for _, cached := range []bool{false, true} {
				if !cached {
					b.c.Eng.Go("drop", func(p *sim.Proc) {
						for _, s := range b.c.Servers {
							s.FS().DropCaches(p)
						}
					})
					if err := b.c.Run(); err != nil {
						b.problem("drop caches: %v", err)
					}
				}
				b.round(func(x *rankCtx) {
					pat := patterns.BlockColumn(n, nRanks, x.id, 4)
					segs := []ib.SGE{{Addr: x.st.buf, Len: pat.Bytes()}}
					x.rank.Barrier(x.p)
					x.read(files[i][x.id], img, m, segs, pat.File)
				})
			}
		}
	}
}

// buildSubarrayXfer is the Figure 3 / Table 4 shape: an n x n array of
// ints block-distributed 2x2; each rank writes its subarray rows
// (noncontiguous memory) to a contiguous file region, without sync, and
// reads them back scattered. A cycle is every (n, buffer) pair once: the
// rank's long-lived array (pin-down cache hits) or a newly allocated one.
func buildSubarrayXfer(b *bench) func(k int) {
	span := func(n int64) int64 { return patterns.SubarrayWrite(n, 2, 2, 0, 0, 4).MemSpan() }
	b.allocBufs(span(blockColSizes[len(blockColSizes)-1]))
	sizes := []int64{256, 1024, 2048, 4096}
	return func(k int) {
		r := newRNG(b.seed, k)
		for _, j := range r.perm(len(sizes) * 2) {
			n, fresh := sizes[j/2], j%2 == 1
			img := b.image("sub", n*n*4)
			salt := r.next()
			b.round(func(x *rankCtx) {
				pat := patterns.SubarrayWrite(n, 2, 2, x.id%2, x.id/2, 4)
				// The buffer holds the array from the subarray's first row to
				// its last, not the whole array.
				base := x.st.buf
				if fresh {
					base = x.cl.Space().Malloc(span(n))
				}
				segs := segsAt(base, pat.Mem)
				file := x.open("sub")
				stream := x.fill(segs, salt)
				x.rank.Barrier(x.p)
				accs := pat.File
				x.write(file, img, mpiio.ListIO, segs, accs, stream)
				x.read(file, img, mpiio.ListIO, segs, accs)
				x.finish("sub", file.Handle(), img)
			})
		}
	}
}

// tileBands is how many MPI-IO calls per direction a tile's 768 scan lines
// are issued in: a cycle has 128 timed operations of 48 or 49 requests.
const tileBands = 16

// buildTileMultiple is the Figure 8 shape with Multiple I/O: a 2x2 display
// of 1024x768 24-bit tiles, one PVFS request per 3 kB scan-line run,
// written without sync and read back from the servers' caches. The calls'
// edges sit a seeded 8 to 1024 bytes into a scan line, so every interior
// edge splits one line in two whatever the seed. The edges follow the seed
// for the driver's contract alone, which rejects a time that reads the same
// on every run: at fixed edges virt_op_ms_p50 is 2.13761 ms on five seeds of
// six, the think times notwithstanding (on all of seeds 13 to 24).
func buildTileMultiple(b *bench) func(k int) {
	spec := patterns.PaperTileSpec()
	tile := spec.PixelsX * spec.PixelsY * spec.Elem
	b.allocBufs(tile)
	return func(k int) {
		r := newRNG(b.seed, k)
		salt := r.next()
		edges := make([]int64, tileBands+1)
		for i := 1; i < tileBands; i++ {
			edges[i] = int64(i)*tile/tileBands + 8*int64(1+r.intn(128))
		}
		edges[tileBands] = tile
		img := b.image("tiles", spec.FileBytes())
		b.round(func(x *rankCtx) {
			pat := spec.Tile(x.id)
			file := x.open("tiles")
			stream := x.fill([]ib.SGE{{Addr: x.st.buf, Len: tile}}, salt)
			band := func(i int) ([]ib.SGE, []pvfs.OffLen) {
				lo, hi := edges[i], edges[i+1]
				return []ib.SGE{{Addr: x.st.buf + mem.Addr(lo), Len: hi - lo}}, clip(pat.File, lo, hi)
			}
			x.rank.Barrier(x.p)
			for i := 0; i < tileBands; i++ {
				segs, accs := band(i)
				x.write(file, img, mpiio.MultipleIO, segs, accs, stream[edges[i]:])
			}
			for i := 0; i < tileBands; i++ {
				segs, accs := band(i)
				x.read(file, img, mpiio.MultipleIO, segs, accs)
			}
			x.finish("tiles", file.Handle(), img)
		})
	}
}

// btioDumps is the number of solution dumps per cycle: 32 writes and 32
// reads over four ranks.
const btioDumps = 8

// buildBTIO is the Table 5 shape: BTIO class A geometry (64^3 cells of 5
// doubles, 4 ranks) with the compute phases removed. Even dumps go through
// two-phase collective I/O, odd dumps through list I/O with ADS; the whole
// history is then read back with the method that wrote each dump.
func buildBTIO(b *bench) func(k int) {
	spec := patterns.PaperBTIOSpec()
	spec.Dumps = btioDumps
	b.allocBufs(spec.DumpBytes() / nRanks)
	method := func(d int) mpiio.Method {
		if d%2 == 0 {
			return mpiio.Collective
		}
		return mpiio.ListIOADS
	}
	return func(k int) {
		r := newRNG(b.seed, k)
		salts := make([]uint64, btioDumps)
		for d := range salts {
			salts[d] = r.next()
		}
		img := b.image("btio", spec.FileBytes())
		b.round(func(x *rankCtx) {
			file := x.open("btio")
			segs := []ib.SGE{{Addr: x.st.buf, Len: spec.DumpBytes() / nRanks}}
			x.rank.Barrier(x.p)
			for d := 0; d < btioDumps; d++ {
				stream := x.fill(segs, salts[d])
				x.write(file, img, method(d), segs, spec.Dump(x.id, d).File, stream)
			}
			for d := 0; d < btioDumps; d++ {
				x.read(file, img, method(d), segs, spec.Dump(x.id, d).File)
			}
			x.finish("btio", file.Handle(), img)
		})
	}
}

// The ckpt-cache geometry: operations of about 2 kB at a 4 kB stride (50 %
// holes), 64 per pass, 4 write-then-re-read passes per round, 4 rounds per
// cycle. The lengths come in triples (+2d, -d, -d) with d the run's seeded
// 0 to ckptJitter bytes, so a pass always moves 128 kB while the median
// operation's length, and with it the hit path's copy time, follows the
// seed. That too is for the driver's contract alone, which rejects a time
// that reads the same on every run: at d = 0 the median and the 90th
// percentile operation are both a 2 kB cache hit, 1.502 us at every seed.
const (
	ckptSeg    = 2 << 10
	ckptJitter = 16
	ckptStride = 2 * ckptSeg
	ckptSegs   = 64
	ckptReuse  = 4
	ckptRounds = 4
)

// buildCkptCache runs the client page cache: every rank checkpoints into
// its own file through pcache.DefaultConfig, re-reading what it wrote, and
// in the last round of a cycle one rank reads its neighbour's checkpoint,
// which recalls the neighbour's write lease. Leases are per file, so four
// writers on one shared file would only pass the exclusive lease around and
// never hit; a file per rank is what lets the hit path do the work.
func buildCkptCache(b *bench) func(k int) {
	b.allocBufs(ckptSeg + 2*ckptJitter)
	name := func(rank int) string { return fmt.Sprintf("ckpt-%d", rank) }
	size := int64(ckptSegs) * ckptStride
	d := int64(newRNG(b.seed, -2).intn(ckptJitter + 1))
	lens := make([]int64, ckptSegs)
	for i := range lens {
		lens[i] = ckptSeg
	}
	for i := 0; i+3 <= ckptSegs; i += 3 {
		lens[i], lens[i+1], lens[i+2] = ckptSeg+2*d, ckptSeg-d, ckptSeg-d
	}
	return func(k int) {
		r := newRNG(b.seed, k)
		for round := 0; round < ckptRounds; round++ {
			salt := r.next()
			reader := -1
			if round == ckptRounds-1 {
				reader = r.intn(nRanks)
			}
			for i := 0; i < nRanks; i++ {
				b.image(name(i), size)
			}
			b.round(func(x *rankCtx) {
				img := b.images[name(x.id)]
				file := x.open(name(x.id))
				file.EnableCache(pcache.DefaultConfig())
				seg := func(i int) []ib.SGE { return []ib.SGE{{Addr: x.st.buf, Len: lens[i]}} }
				acc := func(i int) []pvfs.OffLen { return []pvfs.OffLen{{Off: int64(i) * ckptStride, Len: lens[i]}} }
				x.rank.Barrier(x.p)
				for pass := 0; pass < ckptReuse; pass++ {
					for i := 0; i < ckptSegs; i++ {
						stream := x.fill(seg(i), salt+uint64(pass*ckptSegs+i))
						x.write(file, img, mpiio.ListIO, seg(i), acc(i), stream)
					}
					for i := 0; i < ckptSegs; i++ {
						x.read(file, img, mpiio.ListIO, seg(i), acc(i))
					}
				}
				x.rank.Barrier(x.p)
				if x.id == reader {
					peer := (x.id + 1) % nRanks
					pf := x.open(name(peer))
					pf.EnableCache(pcache.DefaultConfig())
					for i := 0; i < ckptSegs; i++ {
						x.read(pf, b.images[name(peer)], mpiio.ListIO, seg(i), acc(i))
					}
					if err := pf.DisableCache(x.p); err != nil {
						b.problem("rank %d: closing the neighbour's cache: %v", x.id, err)
					}
				}
				x.rank.Barrier(x.p)
				x.sync(file)
				if err := file.DisableCache(x.p); err != nil {
					b.problem("rank %d: closing the cache: %v", x.id, err)
				}
				x.rank.Barrier(x.p)
				for i := 0; i < nRanks; i++ {
					x.verify(x.cl.Open(x.p, name(i)), b.images[name(i)])
				}
				x.rank.Barrier(x.p)
				x.remove(name(x.id))
			})
		}
	}
}

// The fault-storm geometry: the internal/bench storm cell, repeated.
const (
	stormSegs   = 64
	stormSeg    = 4 << 10
	stormRounds = 10
)

// buildFaultStorm repeats the storm cell of the faults experiment: every
// rank list-writes 64 strided 4 kB pieces, syncs and reads them back while
// the round's seeded plan injects completion errors and registration
// failures, cuts one client-server link and crashes one I/O daemon other
// than iod 0 (which hosts the manager). The plan is re-armed every round
// through Cluster.AttachFaults, whose windows count from the attach.
func buildFaultStorm(b *bench) func(k int) {
	n := int64(stormSegs * stormSeg)
	b.allocBufs(2 * n)
	img := b.image("storm", nRanks*n)
	files := [nRanks]*mpiio.File{}
	b.ranks(func(x *rankCtx) { files[x.id] = x.open("storm") })
	return func(k int) {
		salts := newRNG(b.seed, k)
		// The plans are a function of the cycle and the round alone. Drawn
		// from the run's seed, the number of one-second timeouts a window
		// meets would swing virt_mbps by a quarter from seed to seed.
		r := newRNG(0, k)
		for round := 0; round < stormRounds && !b.cut(); round++ {
			salt := salts.next()
			plan := &fault.Plan{
				Seed:        int64(r.next() >> 1),
				WRErrorRate: 0.02,
				RegFailRate: 0.2,
				Cuts: []fault.Cut{{
					A:  int(b.c.Clients[r.intn(nRanks)].Node().ID),
					B:  int(b.c.Servers[r.intn(nIOD)].HCA().NodeID()),
					At: 200 * time.Microsecond, Dur: 400 * time.Microsecond,
				}},
				Crashes: []fault.Crash{{
					Server: 1 + r.intn(nIOD-1),
					At:     300 * time.Microsecond, Down: 600 * time.Microsecond,
				}},
			}
			inj := b.c.AttachFaults(plan)
			b.round(func(x *rankCtx) {
				// Strided memory (one piece per two) and a file interleaved
				// piece by piece across the ranks.
				segs := make([]ib.SGE, stormSegs)
				accs := make([]pvfs.OffLen, stormSegs)
				for j := range segs {
					segs[j] = ib.SGE{Addr: x.st.buf + mem.Addr(2*j*stormSeg), Len: stormSeg}
					accs[j] = pvfs.OffLen{Off: int64(j*nRanks+x.id) * stormSeg, Len: stormSeg}
				}
				stream := x.fill(segs, salt)
				x.write(files[x.id], img, mpiio.ListIO, segs, accs, stream)
				x.sync(files[x.id])
				x.read(files[x.id], img, mpiio.ListIO, segs, accs)
			})
			b.injected = addFaults(b.injected, inj.Totals())
			b.c.AttachFaults(nil)
		}
	}
}

func addFaults(a, o fault.Counters) fault.Counters {
	a.WRErrors += o.WRErrors
	a.Drops += o.Drops
	a.Spiked += o.Spiked
	a.RegFailures += o.RegFailures
	a.DiskErrors += o.DiskErrors
	a.DiskSlow += o.DiskSlow
	return a
}
