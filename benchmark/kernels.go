package main

import (
	"os"
	"strconv"
	"strings"
	"time"

	"pvfsib/internal/disk"
	"pvfsib/internal/ib"
	"pvfsib/internal/localfs"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/ogr"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	patterns "pvfsib/internal/workload"
)

// Family (b): host time cannot be attributed inside the program without
// editing it, so each layer's public functions are timed alone, on inputs
// taken from the workloads' geometries.

// minKernelDur is the shortest a kernel is timed for when a single-workload
// traced run has used up its budget; the all-workloads ledger gives each
// kernel ledgerKernelDur.
const (
	minKernelDur    = 50 * time.Millisecond
	ledgerKernelDur = 300 * time.Millisecond
)

// kernel times n calls of one layer function and returns what the timed
// part cost; set-up stays outside the measurement.
type kernel struct {
	name   string // host ns per call
	allocs string // mallocs per call, when the ledger wants them
	run    func(n int) hostCost
	// per converts calls to reported units (regions or buffers per call).
	per int
}

var kernels = []kernel{
	{name: "sim.host_ns.event", run: kEvent},
	{name: "sim.host_ns.mailbox_rtt", run: kMailbox},
	{name: "sim.host_ns.resource_use", run: kResource},
	{name: "sim.host_ns.sleep", run: kSleep},
	{name: "simnet.host_ns.send_4k", run: kNetSend},
	{name: "ib.host_ns.send_recv", run: kIBSendRecv},
	{name: "ib.host_ns.rdma_write_64sge", run: func(n int) hostCost { return kRDMA(n, true) }},
	{name: "ib.host_ns.rdma_read_64sge", run: func(n int) hostCost { return kRDMA(n, false) }},
	{name: "ib.host_ns.register", run: kRegister},
	{name: "ib.host_ns.regcache_hit", run: kRegCacheHit},
	{name: "mem.host_ns.write_4k", run: kMemWrite},
	{name: "mem.host_ns.query_holes_1000", run: kQueryHoles},
	{name: "ogr.host_ns.register_buffers_1024", allocs: "ogr.host_allocs.register_buffers_1024", run: kOGR, per: 1024},
	{name: "mpiio.host_ns.view_map_region", run: kViewMap, per: 1024},
	{name: "mpiio.host_ns.subarray3d_region", run: kSubarray3D, per: 32 * 32},
	{name: "workload.host_ns.btio_dump", run: kBTIODump},
	{name: "pvfs.host_ns.rpc_4k", run: kRPC},
	{name: "pvfs.host_ns.list_128x2k", run: kList},
	{name: "sieve.host_ns.read_128", run: func(n int) hostCost { return kSieve(n, false) }},
	{name: "sieve.host_ns.write_128", run: func(n int) hostCost { return kSieve(n, true) }},
	{name: "localfs.host_ns.read_at_cached_64k", run: func(n int) hostCost { return kLocalFS(n, false) }},
	{name: "localfs.host_ns.write_at_64k", run: func(n int) hostCost { return kLocalFS(n, true) }},
	{name: "disk.host_ns.read_64k", run: kDisk},
	{name: "pcache.host_ns.hit_read_2k", allocs: "pcache.host_allocs.hit_read_2k", run: kPcacheHit},
	{name: "mpi.host_ns.barrier4", run: func(n int) hostCost { return kMPI(n, false) }},
	{name: "mpi.host_ns.alltoallv4_64k", run: func(n int) hostCost { return kMPI(n, true) }},
}

// timeKernel grows n until one run of the kernel lasts dur, then reports
// that run per call.
func timeKernel(k kernel, dur time.Duration) (nsPerCall, allocsPerCall float64) {
	n := 1
	for {
		c := k.run(n)
		if c.wall >= dur || n >= 1<<28 {
			calls := float64(n)
			if k.per > 0 {
				calls *= float64(k.per)
			}
			return float64(c.wall) / calls, float64(c.mallocs) / calls
		}
		grow := 100.0
		if c.wall > 0 {
			grow = 1.2 * float64(dur) / float64(c.wall)
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n)*grow) + 1
	}
}

// kernelMetrics runs every kernel for dur and the two derived numbers.
func kernelMetrics(out map[string]metric, dur time.Duration) {
	for _, k := range kernels {
		ns, allocs := timeKernel(k, dur)
		out[k.name] = metric{ns, "ns"}
		if k.allocs != "" {
			out[k.allocs] = metric{allocs, "count"}
		}
	}
	out["mem.host_mbps.copy"] = metric{memCopyMBps(dur), "MB/s"}
	out["sim.shards2_speedup"] = metric{shards2Speedup(), "ratio"}
}

// runTolerant drives an engine whose service processes (adapter engines)
// park forever by design, which Run reports as a deadlock.
func runTolerant(eng *sim.Engine) {
	if err := eng.Run(); err != nil {
		if _, ok := err.(*sim.DeadlockError); !ok {
			sim.Must(err)
		}
	}
}

// inProc runs body as the engine's one application process, timing only
// body, then stops the engine's service processes.
func inProc(eng *sim.Engine, body func(p *sim.Proc)) hostCost {
	var c hostCost
	eng.Go("kernel", func(p *sim.Proc) { c = measure(func() { body(p) }) })
	runTolerant(eng)
	eng.Shutdown()
	return c
}

func kEvent(n int) hostCost {
	eng := sim.NewEngine()
	left := n
	var step func()
	step = func() {
		if left--; left > 0 {
			eng.After(time.Microsecond, step)
		}
	}
	eng.After(time.Microsecond, step)
	return measure(func() { runTolerant(eng) })
}

func kMailbox(n int) hostCost {
	eng := sim.NewEngine()
	req, rsp := eng.NewMailbox("req"), eng.NewMailbox("rsp")
	eng.Go("server", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			rsp.Send(req.Recv(p))
		}
	})
	return inProc(eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			req.Send(i)
			rsp.Recv(p)
		}
	})
}

func kResource(n int) hostCost {
	eng := sim.NewEngine()
	r := eng.NewResource("unit", 1)
	return inProc(eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.Use(p, time.Microsecond)
		}
	})
}

func kSleep(n int) hostCost {
	return inProc(sim.NewEngine(), func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
}

func kNetSend(n int) hostCost {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	a, b := net.AddNode("a"), net.AddNode("b")
	eng.Go("sink", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Recycle(b.Inbox.Recv(p).(*simnet.Message))
		}
	})
	return inProc(eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sim.Must(a.Send(p, b.ID, 4<<10, nil))
		}
	})
}

// pair is two connected adapters on a two-node fabric.
type pair struct {
	eng      *sim.Engine
	cli, srv *ib.HCA
	cq, sq   *ib.QP
}

func newPair() *pair {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	cli := ib.NewHCA(net.AddNode("cn"), mem.NewAddrSpace("cn"), ib.DefaultParams())
	srv := ib.NewHCA(net.AddNode("io"), mem.NewAddrSpace("io"), ib.DefaultParams())
	cq, sq := ib.Connect(cli, srv)
	return &pair{eng: eng, cli: cli, srv: srv, cq: cq, sq: sq}
}

func kIBSendRecv(n int) hostCost {
	pr := newPair()
	pr.eng.Go("peer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pr.sq.Recv(p)
		}
	})
	return inProc(pr.eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sim.Must(pr.cq.Send(p, 64, nil))
		}
	})
}

// kRDMA moves 64 scan-line-sized (3 kB) segments, every other one of a
// client array, to or from one registered server region.
func kRDMA(n int, write bool) hostCost {
	const nseg, seg = 64, 3 << 10
	pr := newPair()
	dst := pr.srv.Space().Malloc(nseg * seg)
	dstMR, err := pr.srv.RegisterStatic(mem.Extent{Addr: dst, Len: nseg * seg})
	sim.Must(err)
	src := pr.cli.Space().Malloc(2 * nseg * seg)
	_, err = pr.cli.RegisterStatic(mem.Extent{Addr: src, Len: 2 * nseg * seg})
	sim.Must(err)
	sges := make([]ib.SGE, nseg)
	for i := range sges {
		sges[i] = ib.SGE{Addr: src + mem.Addr(2*i*seg), Len: seg}
	}
	return inProc(pr.eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if write {
				sim.Must(pr.cq.RDMAWrite(p, sges, dst, dstMR.Key))
			} else {
				sim.Must(pr.cq.RDMARead(p, sges, dst, dstMR.Key))
			}
		}
	})
}

func kRegister(n int) hostCost {
	pr := newPair()
	e := mem.Extent{Addr: pr.cli.Space().Malloc(64 << 10), Len: 64 << 10}
	return inProc(pr.eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			mr, err := pr.cli.Register(p, e)
			sim.Must(err)
			sim.Must(pr.cli.Deregister(p, mr))
		}
	})
}

func kRegCacheHit(n int) hostCost {
	pr := newPair()
	cache := ib.NewRegCache(pr.cli, 256<<20, 1024)
	e := mem.Extent{Addr: pr.cli.Space().Malloc(64 << 10), Len: 64 << 10}
	return inProc(pr.eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			mr, err := cache.Get(p, e)
			sim.Must(err)
			sim.Must(cache.Put(p, mr))
		}
	})
}

func kMemWrite(n int) hostCost {
	s := mem.NewAddrSpace("k")
	const span = 16 << 20
	base := s.Malloc(span)
	data := make([]byte, 4<<10)
	return measure(func() {
		for i := 0; i < n; i++ {
			// Unaligned, so a write straddles two pages as list-I/O rows do.
			sim.Must(s.Write(base+mem.Addr((i*6151)%(span-8192)), data))
		}
	})
}

// memCopyMBps is AddrSpace.Copy throughput over a 4 MB stretch.
func memCopyMBps(dur time.Duration) float64 {
	s := mem.NewAddrSpace("k")
	const n = 4 << 20
	src, dst := s.Malloc(n), s.Malloc(n)
	ns, _ := timeKernel(kernel{run: func(calls int) hostCost {
		return measure(func() {
			for i := 0; i < calls; i++ {
				sim.Must(s.Copy(dst, src, n))
			}
		})
	}}, dur)
	return float64(n) / MB / (ns / 1e9)
}

// kQueryHoles asks for the holes of a 1000-page extent in which every
// tenth page is unallocated.
func kQueryHoles(n int) hostCost {
	eng := sim.NewEngine()
	s := mem.NewAddrSpace("k")
	base := s.Malloc(1000 * mem.PageSize)
	for pg := int64(5); pg < 1000; pg += 10 {
		s.Free(mem.Extent{Addr: base + mem.Addr(pg*mem.PageSize), Len: mem.PageSize})
	}
	e := mem.Extent{Addr: base, Len: 1000 * mem.PageSize}
	return inProc(eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			s.QueryHoles(p, e, mem.QuerySyscall)
		}
	})
}

// kOGR group-registers the 1024 rows of the 2048x2048 subarray, through a
// pin-down cache that is flushed after every call.
func kOGR(n int) hostCost {
	pr := newPair()
	pat := patterns.SubarrayWrite(2048, 2, 2, 0, 0, 4)
	base := pr.cli.Space().Malloc(pat.MemSpan())
	bufs := make([]mem.Extent, len(pat.Mem))
	for i, r := range pat.Mem {
		bufs[i] = mem.Extent{Addr: base + mem.Addr(r.Off), Len: r.Len}
	}
	reg := ogr.Direct{HCA: pr.cli}
	return inProc(pr.eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			res, err := ogr.RegisterBuffers(p, reg, pr.cli.Space(), bufs, ogr.DefaultConfig())
			sim.Must(err)
			sim.Must(ogr.Release(p, reg, res))
		}
	})
}

// kViewMap maps 1024 rows of the 4096x4096 block-column view.
func kViewMap(n int) hostCost {
	pat := patterns.BlockColumn(4096, nRanks, 1, 4)
	v := mpiio.View{Pattern: pat.File[:1], Extent: 4096 * 4}
	return measure(func() {
		for i := 0; i < n; i++ {
			_, err := v.Map(0, 1024*pat.File[0].Len)
			sim.Must(err)
		}
	})
}

// kSubarray3D flattens a rank's 32x32x64 block of the BTIO class A cube.
func kSubarray3D(n int) hostCost {
	return measure(func() {
		for i := 0; i < n; i++ {
			_, err := mpiio.Subarray3D([3]int64{64, 64, 64}, [3]int64{32, 32, 64}, [3]int64{32, 0, 0}, patterns.CellBytes)
			sim.Must(err)
		}
	})
}

func kBTIODump(n int) hostCost {
	spec := patterns.PaperBTIOSpec()
	return measure(func() {
		for i := 0; i < n; i++ {
			spec.Dump(i%nRanks, i%spec.Dumps)
		}
	})
}

// oneOnOne runs body on a cluster of one client and one I/O daemon, with a
// buffer of n bytes and an open file, and returns the cost body reports.
func oneOnOne(n int64, body func(p *sim.Proc, fh *pvfs.FileHandle, buf mem.Addr) hostCost) hostCost {
	c := pvfs.NewCluster(sim.NewEngine(), pvfs.DefaultConfig(), 1, 1)
	cl := c.Clients[0]
	buf := cl.Space().Malloc(n)
	var cost hostCost
	c.Eng.Go("kernel", func(p *sim.Proc) { cost = body(p, cl.Open(p, "k"), buf) })
	sim.Must(c.Run())
	c.Eng.Shutdown()
	return cost
}

func kRPC(n int) hostCost {
	return oneOnOne(4<<10, func(p *sim.Proc, fh *pvfs.FileHandle, buf mem.Addr) hostCost {
		return measure(func() {
			for i := 0; i < n; i++ {
				sim.Must(fh.Write(p, buf, 4<<10, int64(i%256)*(4<<10), pvfs.OpOptions{}))
			}
		})
	})
}

func kList(n int) hostCost {
	const nseg, seg = 128, 2 << 10
	accs := make([]pvfs.OffLen, nseg)
	for i := range accs {
		accs[i] = pvfs.OffLen{Off: int64(i) * 2 * seg, Len: seg}
	}
	return oneOnOne(nseg*seg, func(p *sim.Proc, fh *pvfs.FileHandle, buf mem.Addr) hostCost {
		segs := []ib.SGE{{Addr: buf, Len: nseg * seg}}
		return measure(func() {
			for i := 0; i < n; i++ {
				sim.Must(fh.WriteList(p, segs, accs, pvfs.OpOptions{}))
			}
		})
	})
}

// localFile is a local file system on its own engine with one 8 MB file
// written and cached.
func localFile(body func(p *sim.Proc, fs *localfs.FS, f *localfs.File)) hostCost {
	eng := sim.NewEngine()
	fs := localfs.New(eng, disk.New(eng, "disk", disk.DefaultParams()), localfs.DefaultParams())
	var cost hostCost
	eng.Go("kernel", func(p *sim.Proc) {
		f := fs.Open(p, "k")
		f.WriteAt(p, 0, make([]byte, 8<<20))
		cost = measure(func() { body(p, fs, f) })
	})
	runTolerant(eng)
	eng.Shutdown()
	return cost
}

// kSieve runs the cost model and the chosen access over 128 accesses of
// 2 kB with 50 % holes, the ckpt-cache and list-I/O kernel geometry.
func kSieve(n int, write bool) hostCost {
	accs := make([]sieve.Access, 128)
	for i := range accs {
		accs[i] = sieve.Access{Off: int64(i) * (4 << 10), Len: 2 << 10}
	}
	data := make([]byte, 128*(2<<10))
	return localFile(func(p *sim.Proc, fs *localfs.FS, f *localfs.File) {
		params := sieve.ModelFromFS(fs, ib.DefaultParams().MemcpyBandwidth)
		var st sieve.Stats
		for i := 0; i < n; i++ {
			if write {
				sieve.Write(p, f, accs, data, params, sieve.Auto, &st)
			} else {
				sieve.Read(p, f, accs, params, sieve.Auto, &st)
			}
		}
	})
}

func kLocalFS(n int, write bool) hostCost {
	data := make([]byte, 64<<10)
	return localFile(func(p *sim.Proc, fs *localfs.FS, f *localfs.File) {
		for i := 0; i < n; i++ {
			off := int64(i%128) * (64 << 10)
			if write {
				f.WriteAt(p, off, data)
			} else {
				f.ReadAt(p, off, 64<<10)
			}
		}
	})
}

func kDisk(n int) hostCost {
	eng := sim.NewEngine()
	d := disk.New(eng, "disk", disk.DefaultParams())
	return inProc(eng, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			d.Read(p, int64(i%1024)*(1<<20), 64<<10)
		}
	})
}

// kPcacheHit re-reads one resident 2 kB piece through the page cache.
func kPcacheHit(n int) hostCost {
	return oneOnOne(2<<10, func(p *sim.Proc, fh *pvfs.FileHandle, buf mem.Addr) hostCost {
		cf := pcache.New(fh, pcache.DefaultConfig())
		sim.Must(cf.Write(p, buf, 2<<10, 0))
		c := measure(func() {
			for i := 0; i < n; i++ {
				sim.Must(cf.Read(p, buf, 2<<10, 0))
			}
		})
		sim.Must(cf.Close(p))
		return c
	})
}

func kMPI(n int, alltoall bool) hostCost {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	hcas := make([]*ib.HCA, nRanks)
	for i := range hcas {
		name := "cn" + strconv.Itoa(i)
		hcas[i] = ib.NewHCA(net.AddNode(name), mem.NewAddrSpace(name), ib.DefaultParams())
	}
	w := mpi.NewWorld(eng, hcas, nil)
	parts := make([][]byte, nRanks)
	for i := range parts {
		parts[i] = make([]byte, 64<<10)
	}
	body := func(p *sim.Proc, r *mpi.Rank) {
		for i := 0; i < n; i++ {
			if alltoall {
				r.Alltoallv(p, parts)
			} else {
				r.Barrier(p)
			}
		}
	}
	for i := 1; i < nRanks; i++ {
		r := w.Rank(i)
		eng.Go("rank"+strconv.Itoa(i), func(p *sim.Proc) { body(p, r) })
	}
	return inProc(eng, func(p *sim.Proc) { body(p, w.Rank(0)) })
}

// shardsPairs is how many alternating pairs of cycles sim.shards2_speedup
// is the median of.
const shardsPairs = 3

// shards2Speedup is the host time of a blockcol-read cycle on a one-shard
// engine over the same cycle on a two-shard engine, the median of
// shardsPairs pairs run alternately: the input ROADMAP item 3 is waiting
// for.
func shards2Speedup() float64 {
	one, two := newShardsCell(1), newShardsCell(2)
	defer one.b.close()
	defer two.b.close()
	var ratios []float64
	for i := 0; i < shardsPairs; i++ {
		// The side that runs first alternates, so that neither always meets
		// the heap the other left.
		var t1, t2 float64
		if i%2 == 0 {
			t1 = one.cycle()
			t2 = two.cycle()
		} else {
			t2 = two.cycle()
			t1 = one.cycle()
		}
		ratios = append(ratios, t1/t2)
	}
	return median(ratios)
}

// shardsCell is the blockcol-read files on an engine of some shard count.
// On a sharded engine the ranks run on several goroutines, which the
// harness's ledger and reference images are not built for, so the cell
// issues blockcol-read's reads itself and checks no bytes; the workload
// does that.
type shardsCell struct {
	b     *bench
	files [][nRanks]*mpiio.File
}

func newShardsCell(shards int) *shardsCell {
	cfg := pvfs.DefaultConfig()
	cfg.Shards = shards
	c := &shardsCell{b: newBench(1, cfg, nil), files: make([][nRanks]*mpiio.File, len(blockColSizes))}
	nmax := blockColSizes[len(blockColSizes)-1]
	c.b.allocBufs(nmax * nmax * 4 / nRanks)
	for i, n := range blockColSizes {
		c.ranks(i, func(x *rankCtx, segs []ib.SGE, accs []pvfs.OffLen) {
			f := x.open("bcr-" + strconv.FormatInt(n, 10))
			c.files[i][x.id] = f
			sim.Must(f.Write(x.p, mpiio.ListIO, segs, accs))
			f.Sync(x.p)
		})
	}
	return c
}

// ranks runs fn on every rank with the rank's block column of array i.
func (c *shardsCell) ranks(i int, fn func(x *rankCtx, segs []ib.SGE, accs []pvfs.OffLen)) {
	c.b.ranks(func(x *rankCtx) {
		pat := patterns.BlockColumn(blockColSizes[i], nRanks, x.id, 4)
		fn(x, []ib.SGE{{Addr: x.st.buf, Len: pat.Bytes()}}, pat.File)
	})
}

// cycle reads every (n, method) pair of blockcol-read after DropCaches and
// again from the servers' caches, and returns the host seconds that took.
func (c *shardsCell) cycle() float64 {
	return measure(func() {
		for i := range blockColSizes {
			for _, m := range blockColReadMethods {
				for _, s := range c.b.c.Servers {
					c.b.c.Eng.GoOn(s.HCA().Node().Group(), "drop", func(p *sim.Proc) { s.FS().DropCaches(p) })
				}
				sim.Must(c.b.c.Run())
				for range 2 {
					c.ranks(i, func(x *rankCtx, segs []ib.SGE, accs []pvfs.OffLen) {
						sim.Must(c.files[i][x.id].Read(x.p, m, segs, accs))
					})
				}
			}
		}
	}).wall.Seconds()
}

// peakRSSMB is the process's peak resident set (VmHWM), 0 where /proc does
// not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
