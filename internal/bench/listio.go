package bench

import (
	"bytes"

	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/stats"
	"pvfsib/internal/workload"
)

// bed is a cluster geometry: its configuration, I/O servers, and compute
// nodes (one MPI rank each).
type bed struct {
	cfg            pvfs.Config
	servers, ranks int
}

// paperBed is the paper's testbed: four compute nodes, four I/O servers,
// default configuration.
func paperBed() bed { return bed{pvfs.DefaultConfig(), 4, 4} }

// readBack says where a listIO run's read pass puts the bytes.
type readBack int

const (
	noRead     readBack = iota // write only
	readFresh                  // newly allocated buffers of the write's layout
	readSame                   // the buffers the write used (their registrations may be cached)
	readPacked                 // newly allocated buffers, segments back to back
)

// listIO describes one rank-parallel noncontiguous-I/O measurement: every
// rank opens file, materializes its share of layout, and the ranks write —
// then optionally read — their shares together. Each pass is its own
// simulation run, so a timed pass's bandwidth is total bytes over the
// virtual time from the pass's start (open and barrier included) to its
// last rank's finish.
type listIO struct {
	file   string
	layout layout
	// method is the MPI-IO access method. When opts is set the ranks
	// bypass MPI-IO and call PVFS list I/O with these options instead; the
	// run then also plays the application's part of the app-aware policies
	// (RegExplicit: pin each rank's allocation beforehand, untimed;
	// RegDeclared: name it in the options).
	method mpiio.Method
	opts   *pvfs.OpOptions

	iters      int    // operations per timed pass (0 means 1)
	warm       string // file of one untimed, unbarriered write first ("" = none): steady-state pin-down caches
	populate   bool   // the write only produces the file: plain list I/O, untimed, unbarriered
	sync       bool   // sync after the write, inside its timed window
	dropCaches bool   // empty every server's page cache before the read
	read       readBack
	// verify makes the run a checked round trip instead: each rank writes,
	// reads straight back into a packed buffer and compares — one
	// unbarriered pass, reported as elapsed time only.
	verify bool
}

// ioResult is a listIO run's outcome: aggregate bandwidths in MB/s (zero
// for a pass that was not timed), the virtual time of the passes after the
// warm-up, and the cluster counters those passes moved.
type ioResult struct {
	w, r    float64
	elapsed sim.Duration
	snap    stats.Snapshot
}

func wMBs(r ioResult) any { return r.w }
func rMBs(r ioResult) any { return r.r }

// run builds the bed's cluster and performs the runs on it in order; later
// runs see the state (caches, registrations, file data) earlier ones left.
func (b bed) run(runs ...listIO) []ioResult {
	f := newFixture(b.cfg, b.servers, b.ranks)
	defer f.close()
	out := make([]ioResult, len(runs))
	for i, run := range runs {
		out[i] = f.listIO(run)
	}
	return out
}

// one is run for a single measurement.
func (b bed) one(run listIO) ioResult { return b.run(run)[0] }

// pass is one rank-parallel phase of a listIO run: every rank opens file
// and moves its share between its buffers and the file.
type pass struct {
	file   string
	write  bool
	method mpiio.Method
	// fresh, when set, first allocates new buffers holding fresh(the
	// rank's pattern); otherwise the rank's current buffers are reused.
	fresh  func(workload.Pattern) workload.Pattern
	timed  bool // enter through a barrier, repeat iters times; untimed is one unbarriered operation
	sync   bool
	verify bool // then read straight back into a packed buffer and compare
}

func samePattern(p workload.Pattern) workload.Pattern { return p }

func (f *fixture) listIO(run listIO) ioResult {
	ranks := f.w.Size()
	iters := max(run.iters, 1)
	pats := make([]workload.Pattern, ranks)
	bufs := make([]buffer, ranks)
	opts := make([]pvfs.OpOptions, ranks) // per rank: Allocation is the rank's own
	var perOp int64
	for i := range pats {
		pats[i] = run.layout(i, ranks)
		perOp += pats[i].Bytes()
		if run.opts != nil {
			opts[i] = *run.opts
		}
	}
	alloc := func(cl *pvfs.Client, id int, shape func(workload.Pattern) workload.Pattern) {
		pat := shape(pats[id])
		bufs[id] = materialize(cl, pat, byte(id))
		opts[id].Allocation = mem.Extent{Addr: bufs[id].Base, Len: pat.MemSpan()}
	}
	do := func(ps pass) sim.Duration {
		return f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
			id := rank.ID()
			var file *mpiio.File
			var fh *pvfs.FileHandle
			if run.opts == nil {
				file = mpiio.Open(p, cl, rank, ps.file)
				fh = file.Handle()
			} else {
				fh = cl.Open(p, ps.file)
			}
			move := func(write bool, b buffer) {
				switch {
				case file != nil && write:
					sim.Must(file.Write(p, ps.method, b.Segs, b.Accs))
				case file != nil:
					sim.Must(file.Read(p, ps.method, b.Segs, b.Accs))
				case write:
					sim.Must(fh.WriteList(p, b.Segs, b.Accs, opts[id]))
				default:
					sim.Must(fh.ReadList(p, b.Segs, b.Accs, opts[id]))
				}
			}
			if ps.fresh != nil {
				alloc(cl, id, ps.fresh)
			}
			n := 1
			if ps.timed {
				rank.Barrier(p)
				n = iters
			}
			for ; n > 0; n-- {
				move(ps.write, bufs[id])
			}
			if ps.sync {
				fh.Sync(p)
			}
			if ps.verify {
				var want []byte
				for _, s := range bufs[id].Segs {
					b, err := cl.Space().Read(s.Addr, s.Len)
					sim.Must(err)
					want = append(want, b...)
				}
				rd := materialize(cl, packed(pats[id]), 0)
				move(false, rd)
				got, err := cl.Space().Read(rd.Base, int64(len(want)))
				sim.Must(err)
				if !bytes.Equal(got, want) {
					sim.Failf("bench: %s: rank %d read back corrupted data", ps.file, id)
				}
			}
		})
	}

	// The first writing pass allocates the ranks' buffers.
	write := pass{file: run.file, write: true, method: run.method, fresh: samePattern, sync: run.sync}
	if run.opts != nil && run.opts.Reg == pvfs.RegExplicit {
		f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
			alloc(cl, rank.ID(), samePattern)
			_, err := cl.RegisterRegion(p, opts[rank.ID()].Allocation)
			sim.Must(err)
		})
		write.fresh = nil
	}
	if run.warm != "" {
		warm := write
		warm.file, warm.sync = run.warm, false
		do(warm)
		write.fresh = nil
	}
	var res ioResult
	before := f.c.Snapshot()
	switch {
	case run.verify:
		write.verify = true
		res.elapsed = do(write)
	case run.populate:
		write.method = mpiio.ListIO
		do(write)
	default:
		write.timed = true
		res.elapsed = do(write)
		res.w = bw(perOp*int64(iters), res.elapsed)
	}
	if run.dropCaches {
		f.c.Eng.Go("drop", func(p *sim.Proc) { dropAllCaches(p, f.c) })
		sim.Must(f.c.Run())
	}
	if run.read != noRead {
		fresh := [...]func(workload.Pattern) workload.Pattern{readFresh: samePattern, readPacked: packed}
		d := do(pass{file: run.file, method: run.method, fresh: fresh[run.read], timed: true})
		res.r = bw(perOp*int64(iters), d)
		res.elapsed += d
	}
	res.snap = f.c.Snapshot().Sub(before)
	return res
}
