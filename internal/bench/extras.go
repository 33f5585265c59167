package bench

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/ogr"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/workload"
)

// extraNoncontig reproduces the ROMIO "noncontig" benchmark (Latham & Ross,
// the paper's reference [15]): every process writes and reads a vector
// pattern — 2048 blocks of veclen doubles out of every nprocs*veclen —
// through each access method. The pattern is the pathological case the
// paper's introduction cites for PVFS-over-TCP performance problems.
var extraNoncontig = Experiment{
	ID:     "extra-noncontig",
	Title:  "ROMIO noncontig benchmark (paper ref [15])",
	table:  "ROMIO noncontig benchmark, aggregate bandwidth (MB/s)",
	header: []string{"veclen", "op", "multiple", "datasieving", "listio", "listio+ads"},
	notes:  []string{"vector of count blocks, each veclen*8 bytes, strided by nprocs; smaller veclen = finer fragmentation"},
	sweep: func(o RunOpts) []group {
		const elem, count = 8, 2048 // doubles, as in the original benchmark
		return grid(pick(o.Short, []int64{64}, []int64{8, 64, 512}), methodList,
			func(veclen int64, m mpiio.Method) ioResult {
				block := veclen * elem
				vector := func(rank, ranks int) workload.Pattern {
					return workload.Pattern{
						Mem:  mpiio.Contig(count * block),
						File: mpiio.Vector(count, block, block*int64(ranks)).Shift(int64(rank) * block),
					}
				}
				return paperBed().one(listIO{file: "noncontig", layout: vector, method: m, read: readFresh})
			},
			func(t *Table, veclen int64, res []ioResult) {
				t.Add(line(res, wMBs, veclen, "write")...)
				t.Add(line(res, rMBs, veclen, "read")...)
			})
	},
}

// diskProfile is one storage generation of the disk-speed experiment.
type diskProfile struct {
	name     string
	speed    float64
	fastSeek bool
}

// extraDiskSpeed shows the "active and intelligent" property of ADS: the
// cost model is built from the server's measured disk parameters, so the
// sieve/individual decision adapts to the storage generation without
// retuning — seek-bound disks favour sieving, near-seekless devices favour
// individual access. Sync writes of the block-column pattern.
var extraDiskSpeed = Experiment{
	ID:     "extra-diskspeed",
	Title:  "ADS decisions adapt to disk speed",
	table:  "ADS decision vs. storage profile, block-column sync write (MB/s)",
	header: []string{"disk", "never", "always", "model(auto)", "auto_sieved_windows"},
	notes:  []string{"auto should track the better forced mode on every profile; the SSD-like row flips the decision to individual access"},
	sweep: func(o RunOpts) []group {
		n := pick[int64](o.Short, 1024, 2048)
		return grid([]diskProfile{
			{"0.25x ATA", 0.25, false},
			{"1x ATA (paper)", 1, false},
			{"4x ATA", 4, false},
			{"SSD-like (no seek)", 8, true},
		}, sieveModes,
			func(d diskProfile, mode sieve.Mode) ioResult {
				return sieveModeWrite(bed{diskSpeedConfig(d.speed, d.fastSeek), 4, 4}, "ds", n, mode)
			},
			func(t *Table, d diskProfile, res []ioResult) {
				auto := res[len(res)-1]
				t.Add(append(line(res, wMBs, d.name), auto.snap.SieveWins)...)
			})
	},
}

// diskSpeedConfig scales the disk bandwidth; fastSeek additionally collapses
// the seek and per-op overheads to SSD-like values.
func diskSpeedConfig(speed float64, fastSeek bool) pvfs.Config {
	cfg := pvfs.DefaultConfig()
	cfg.Disk.MaxReadBW *= speed
	cfg.Disk.MaxWriteBW *= speed
	if fastSeek {
		cfg.Disk.Seek = 20 * 1000  // 20µs
		cfg.Disk.PerOp = 20 * 1000 // 20µs
		cfg.Disk.HalfSize = 1024   // small-access penalty nearly gone
	}
	return cfg
}

// regScheme is one registration alternative of the app-aware experiment.
type regScheme struct {
	name    string
	reg     pvfs.RegPolicy
	changes string
}

// extraAppAware compares the paper's Section 4.2.1 design alternatives —
// application-controlled registration (explicit) and declared-allocation
// registration — against the transparent Optimistic Group Registration the
// paper chose. The subarray write of Table 4, steady state.
var extraAppAware = Experiment{
	ID:     "extra-appaware",
	Title:  "App-aware registration alternatives (Section 4.2.1)",
	table:  "Application-aware registration alternatives, subarray write (MB/s)",
	header: []string{"scheme", "agg_MB_s", "regs", "app_changes"},
	notes:  []string{"OGR reaches the app-aware schemes' performance without any application change — the design argument of Section 4.2"},
	sweep: func(o RunOpts) []group {
		n := pick[int64](o.Short, 1024, 2048)
		subarray := func(rank, _ int) workload.Pattern { return workload.SubarrayWrite(n, 2, 2, rank%2, rank/2, 4) }
		return each([]regScheme{
			{"explicit (4.2.1-1)", pvfs.RegExplicit, "register calls"},
			{"declared (4.2.1-2)", pvfs.RegDeclared, "declare allocation"},
			{"OGR (chosen)", pvfs.RegOGR, "none"},
			{"OGR + cache", pvfs.RegCached, "none"},
		},
			func(sc regScheme) ioResult {
				return paperBed().one(listIO{file: "aa", layout: subarray, warm: pick(sc.reg == pvfs.RegCached, "warm", ""),
					opts: &pvfs.OpOptions{Transfer: pvfs.ForceGather, Reg: sc.reg, Sieve: sieve.Never}})
			},
			func(t *Table, sc regScheme, r ioResult) {
				// Per-process registration count, like the paper.
				t.Add(sc.name, r.w, r.snap.Registrations/int64(paperBed().ranks), sc.changes)
			})
	},
}

// queryResult carries one hole-query mechanism's measurements.
type queryResult struct {
	us   float64
	regs int
}

// queryMethod is one OS hole-query mechanism.
type queryMethod struct {
	name   string
	method mem.QueryMethod
}

// extraQueryMethod compares the three OS hole-query mechanisms the paper
// discusses for OGR's fallback (Section 4.3): the custom system call
// (≈70 µs per 1000 holes), reading /proc/$pid/maps (≈1100 µs), and a
// mincore-style per-page probe. The OGR+Q scenario of Table 4.
var extraQueryMethod = Experiment{
	ID:     "extra-querymethod",
	Title:  "OS hole-query mechanisms (Section 4.3)",
	table:  "OS hole-query mechanisms in OGR's fallback (registration time, µs)",
	header: []string{"method", "reg_time_us", "regs"},
	notes:  []string{"paper: ~70µs per 1000 holes via the kernel walk vs ~1100µs via /proc"},
	sweep: func(o RunOpts) []group {
		nseg := pick(o.Short, 256, 1024)
		return each([]queryMethod{
			{"custom syscall", mem.QuerySyscall},
			{"/proc/pid/maps", mem.QueryProcMaps},
			{"mincore probe", mem.QueryMincore},
		},
			func(m queryMethod) queryResult { return queryMethodCell(nseg, m.method) },
			func(t *Table, m queryMethod, r queryResult) { t.Add(m.name, r.us, r.regs) })
	},
}

func queryMethodCell(nseg int, method mem.QueryMethod) queryResult {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	h := ib.NewHCA(net.AddNode("n"), mem.NewAddrSpace("n"), ib.DefaultParams())
	// Buffers from 11 arrays with 10 unallocated holes, like OGR+Q.
	var exts []mem.Extent
	per := (nseg + 10) / 11
	for a := 0; a < 11 && len(exts) < nseg; a++ {
		if a > 0 {
			h.Space().Reserve(2)
		}
		count := min(per, nseg-len(exts))
		base := h.Space().Malloc(int64(count) * 4096)
		for i := 0; i < count; i++ {
			exts = append(exts, mem.Extent{Addr: base + mem.Addr(i*4096), Len: 4096})
		}
	}
	cfg := ogr.DefaultConfig()
	cfg.QueryMethod = method
	var elapsed sim.Duration
	var regs int
	eng.Go("app", func(p *sim.Proc) {
		t0 := p.Now()
		res, err := ogr.RegisterBuffers(p, ogr.Direct{HCA: h}, h.Space(), exts, cfg)
		sim.Must(err)
		regs = res.Registrations
		if !res.Queried {
			sim.Failf("bench: expected the query fallback to run")
		}
		sim.Must(ogr.Release(p, ogr.Direct{HCA: h}, res))
		elapsed = p.Now().Sub(t0)
	})
	runTolerant(eng, h.Space())
	return queryResult{float64(elapsed.Nanoseconds()) / 1000, regs}
}
