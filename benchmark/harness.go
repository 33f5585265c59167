package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

const (
	// MB is the paper's megabyte.
	MB = 1 << 20
	// The paper's testbed: 4 I/O daemons and 4 compute nodes, one MPI rank
	// each.
	nIOD   = 4
	nRanks = 4
	// verifyChunk bounds one contiguous read-back request; the per-rank
	// verification buffer is this large.
	verifyChunk = 4 * MB
	// maxThinkNs bounds the seeded think time a rank spends before each
	// MPI-IO call. It is there for the driver's contract alone, which
	// rejects a time that reads exactly the same on every run: without it
	// virt_op_ms_p50 and _p90 are the same number at every seed on five
	// workloads (the seed then only permutes rounds whose operations take
	// the same virtual time in any order). Two microseconds are far below
	// any operation's length, so they move those metrics by well under 1 %.
	maxThinkNs = 2000
	// minTimedOps is the floor on virt_op_ms samples: p90 then has at least
	// ten samples beyond it.
	minTimedOps = 100
)

// A workload is one named closed-loop traffic mix. build runs the set-up
// (buffers, populated files) on a fresh cluster and returns the function
// that runs cycle k: a fixed, seed-permuted list of rounds whose operation
// count and payload do not depend on the seed.
type workload struct {
	name string
	why  string
	// virtCycles is how many leading cycles the virt_* metrics cover; it
	// is the smallest count that yields minTimedOps timed operations.
	virtCycles int
	build      func(b *bench) (cycle func(k int))
}

// rng is splitmix64: the harness's only randomness, a pure function of the
// seed, so the same seed always generates the same inputs.
type rng struct{ s uint64 }

func newRNG(seed int64, stream int) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03 + 1}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// fillBytes writes the byte stream identified by salt into dst.
func fillBytes(dst []byte, salt uint64) {
	r := rng{s: salt}
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		v := r.next()
		dst[i], dst[i+1], dst[i+2], dst[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		dst[i+4], dst[i+5], dst[i+6], dst[i+7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	}
	for v := r.next(); i < len(dst); i, v = i+1, v>>8 {
		dst[i] = byte(v)
	}
}

// bench is one workload instance on one cluster, with the reference images
// and the operation ledger.
type bench struct {
	seed int64
	c    *pvfs.Cluster
	w    *mpi.World
	rk   [nRanks]rankState
	// images are the flat reference files, updated by plain copy for every
	// write the harness issues.
	images map[string][]byte
	// retired holds the zeroed images of removed files for reuse.
	retired map[string][]byte

	attempted int64
	failed    int64
	mismatch  int64 // bytes differing in contiguous read-backs
	problems  []string

	// The virt window: per-op virtual ns, summed measured-section virtual
	// ns and payload over the workload's first virtCycles cycles.
	inWindow bool
	opNs     []int64
	sectNs   int64
	payload  int64
	// Per-method payload and op time inside the window (mpiio.virt_mbps.*).
	methBytes [len(methodKeys)]int64
	methNs    [len(methodKeys)]int64
	regions   int64 // file regions named by timed ops in the window

	// The open round's measured section.
	sectLo, sectHi sim.Time

	// injected sums what the fault injectors of all rounds injected.
	injected fault.Counters

	// roundLimit, when positive, makes every round after that many a
	// no-op: bench_test.go smoke-tests each workload on its first rounds.
	roundLimit, rounds int

	spans *hostSpans
	// arenaMark is each client's address-space mark at the start of the
	// open round; round frees everything allocated past it.
	arenaMark [nRanks]mem.Addr
}

// rankState is one rank's persistent buffers.
type rankState struct {
	buf    mem.Addr // the rank's data buffer (allocBufs)
	vbuf   mem.Addr // contiguous read-back staging, verifyChunk bytes
	think  rng      // the rank's think-time stream
	stream []byte   // host copy of the bytes last filled into client memory
	got    []byte   // host scratch for bytes read back out of client memory
}

func newBench(seed int64, cfg pvfs.Config, spans *hostSpans) *bench {
	c := pvfs.NewCluster(sim.NewEngine(), cfg, nIOD, nRanks)
	hcas := make([]*ib.HCA, nRanks)
	for i, cl := range c.Clients {
		hcas[i] = cl.HCA()
	}
	w := mpi.NewWorld(c.Eng, hcas, func(rank int, n int64) { c.Clients[rank].Acct().BytesClientClient += n })
	b := &bench{seed: seed, c: c, w: w, images: map[string][]byte{}, retired: map[string][]byte{}, spans: spans}
	for i := range b.rk {
		b.rk[i].vbuf = c.Clients[i].Space().Malloc(verifyChunk)
		b.rk[i].think = *newRNG(seed, -3-i)
	}
	return b
}

// close stops the cluster's service processes so it can be collected.
func (b *bench) close() { b.c.Eng.Shutdown() }

func (b *bench) problem(format string, args ...any) {
	b.failed++
	if len(b.problems) < 8 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// allocBufs gives every rank a persistent data buffer of n bytes.
func (b *bench) allocBufs(n int64) {
	for i := range b.rk {
		b.rk[i].buf = b.c.Clients[i].Space().Malloc(n)
	}
}

// image returns the named file's reference image. A file that does not
// exist yet gets a zero-filled image of the given size (a new file reads as
// zeros everywhere), cut from the image the name had before its removal
// when that is large enough.
func (b *bench) image(name string, size int64) []byte {
	if img, ok := b.images[name]; ok {
		return img
	}
	img := b.retired[name]
	if int64(cap(img)) < size {
		img = make([]byte, size)
	}
	delete(b.retired, name)
	b.images[name] = img[:size]
	return img[:size]
}

// rankCtx is what a round's body sees on one rank.
type rankCtx struct {
	b    *bench
	id   int
	p    *sim.Proc
	rank *mpi.Rank
	cl   *pvfs.Client
	st   *rankState
}

// ranks runs fn once per rank, concurrently in virtual time, and drives
// the simulation until every rank returns.
func (b *bench) ranks(fn func(x *rankCtx)) {
	for i := 0; i < nRanks; i++ {
		x := &rankCtx{b: b, id: i, rank: b.w.Rank(i), cl: b.c.Clients[i], st: &b.rk[i]}
		b.c.Eng.GoOn(x.cl.Node().Group(), fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			x.p = p
			fn(x)
		})
	}
	sp := b.spans.start("run")
	if err := b.c.Run(); err != nil {
		b.problem("simulation: %v", err)
	}
	sp.end()
}

// cut reports whether roundLimit makes the next round a no-op; a workload
// that prepares a round outside round asks first.
func (b *bench) cut() bool { return b.roundLimit > 0 && b.rounds >= b.roundLimit }

// round is ranks plus the bookkeeping of one measured section: the section
// runs from the first timed operation's start to the last one's end, and
// everything a client allocated during the round is freed after it.
func (b *bench) round(fn func(x *rankCtx)) {
	if b.cut() {
		return
	}
	b.rounds++
	for i, cl := range b.c.Clients {
		b.arenaMark[i] = cl.Space().Malloc(mem.PageSize)
	}
	b.sectLo, b.sectHi = -1, -1
	b.ranks(fn)
	if b.inWindow && b.sectLo >= 0 {
		b.sectNs += int64(b.sectHi.Sub(b.sectLo))
	}
	for i, cl := range b.c.Clients {
		end := cl.Space().Malloc(mem.PageSize)
		cl.Space().Free(mem.Extent{Addr: b.arenaMark[i], Len: int64(end-b.arenaMark[i]) + mem.PageSize})
	}
}

// open opens the named file for MPI-IO on this rank.
func (x *rankCtx) open(name string) *mpiio.File { return mpiio.Open(x.p, x.cl, x.rank, name) }

// clip returns the part of a region list that carries stream bytes
// [lo, hi): the regions in order, the first and last cut where needed.
func clip(accs []pvfs.OffLen, lo, hi int64) []pvfs.OffLen {
	var out []pvfs.OffLen
	pos := int64(0)
	for _, a := range accs {
		from, to := max(lo, pos), min(hi, pos+a.Len)
		if from < to {
			out = append(out, pvfs.OffLen{Off: a.Off + from - pos, Len: to - from})
		}
		pos += a.Len
	}
	return out
}

// segsAt lays a flattened memory datatype over a buffer so that the
// layout's first byte is the buffer's first byte.
func segsAt(base mem.Addr, m mpiio.Flat) []ib.SGE {
	segs := make([]ib.SGE, len(m))
	for i, r := range m {
		segs[i] = ib.SGE{Addr: base + mem.Addr(r.Off-m[0].Off), Len: r.Len}
	}
	return segs
}

// fill generates the salt's byte stream, stores it in the segments and
// returns the host copy the reference image is later updated from; the
// copy stays valid until the rank's next fill.
func (x *rankCtx) fill(segs []ib.SGE, salt uint64) []byte {
	sp := x.b.spans.start("materialize")
	n := ib.TotalLen(segs)
	if int64(cap(x.st.stream)) < n {
		x.st.stream = make([]byte, n)
	}
	x.st.stream = x.st.stream[:n]
	fillBytes(x.st.stream, salt+uint64(x.id)*0x632BE59BD9B4E019)
	x.scatter(segs, x.st.stream)
	sp.end()
	return x.st.stream
}

func (x *rankCtx) scatter(segs []ib.SGE, stream []byte) {
	for _, s := range segs {
		if err := x.cl.Space().Write(s.Addr, stream[:s.Len]); err != nil {
			x.b.problem("rank %d: %v", x.id, err)
		}
		stream = stream[s.Len:]
	}
}

// gather copies the segments' bytes out of client memory, in stream order.
func (x *rankCtx) gather(segs []ib.SGE) []byte {
	n := ib.TotalLen(segs)
	if int64(cap(x.st.got)) < n {
		x.st.got = make([]byte, n)
	}
	got := x.st.got[:n]
	off := int64(0)
	for _, s := range segs {
		if err := x.cl.Space().ReadInto(s.Addr, got[off:off+s.Len]); err != nil {
			x.b.problem("rank %d: %v", x.id, err)
		}
		off += s.Len
	}
	return got
}

var poisonPage = bytes.Repeat([]byte{0xA5}, mem.PageSize)

// poison overwrites the segments so a read that moves nothing cannot pass
// verification on bytes left over from an earlier round.
func (x *rankCtx) poison(segs []ib.SGE) {
	for _, s := range segs {
		for off := int64(0); off < s.Len; off += mem.PageSize {
			n := min(s.Len-off, mem.PageSize)
			if err := x.cl.Space().Write(s.Addr+mem.Addr(off), poisonPage[:n]); err != nil {
				x.b.problem("rank %d: %v", x.id, err)
				return
			}
		}
	}
}

// refWrite is the whole reference implementation of a noncontiguous write:
// consecutive stream bytes land in consecutive file regions.
func refWrite(img []byte, accs []pvfs.OffLen, stream []byte) {
	for _, a := range accs {
		copy(img[a.Off:a.Off+a.Len], stream[:a.Len])
		stream = stream[a.Len:]
	}
}

// refDiff counts the stream bytes that differ from the image's regions.
func refDiff(img []byte, accs []pvfs.OffLen, stream []byte) int64 {
	var diff int64
	for _, a := range accs {
		diff += diffBytes(img[a.Off:a.Off+a.Len], stream[:a.Len])
		stream = stream[a.Len:]
	}
	return diff
}

func diffBytes(a, b []byte) int64 {
	if bytes.Equal(a, b) {
		return 0
	}
	var n int64
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// timed runs one MPI-IO call as a timed operation, after the rank's think
// time. An error, or check reporting bytes that differ from the reference,
// counts the operation as failed.
func (x *rankCtx) timed(m mpiio.Method, nbytes int64, nregions int, call func() error, check func() int64) {
	b := x.b
	x.p.Sleep(sim.Duration(x.st.think.intn(maxThinkNs)))
	t0 := x.p.Now()
	err := call()
	t1 := x.p.Now()
	b.attempted++
	if b.sectLo < 0 || t0 < b.sectLo {
		b.sectLo = t0
	}
	if t1 > b.sectHi {
		b.sectHi = t1
	}
	if b.inWindow {
		b.opNs = append(b.opNs, int64(t1.Sub(t0)))
		b.payload += nbytes
		b.regions += int64(nregions)
		if nbytes > 0 {
			b.methBytes[m] += nbytes
			b.methNs[m] += int64(t1.Sub(t0))
		}
	}
	if err != nil {
		b.problem("rank %d: %v", x.id, err)
		return
	}
	if check != nil {
		sp := b.spans.start("verify")
		if d := check(); d != 0 {
			b.problem("rank %d: read returned %d bytes that differ from the reference", x.id, d)
		}
		sp.end()
	}
}

// write issues a timed MPI-IO write of segs, which hold stream, and applies
// the same write to the reference image.
func (x *rankCtx) write(f *mpiio.File, img []byte, m mpiio.Method, segs []ib.SGE, accs []pvfs.OffLen, stream []byte) {
	x.timed(m, ib.TotalLen(segs), len(accs), func() error { return f.Write(x.p, m, segs, accs) }, nil)
	refWrite(img, accs, stream)
}

// read issues a timed MPI-IO read into poisoned memory and compares what
// arrived with the reference image.
func (x *rankCtx) read(f *mpiio.File, img []byte, m mpiio.Method, segs []ib.SGE, accs []pvfs.OffLen) {
	x.poison(segs)
	x.timed(m, ib.TotalLen(segs), len(accs), func() error { return f.Read(x.p, m, segs, accs) },
		func() int64 { return refDiff(img, accs, x.gather(segs)) })
}

// sync issues a timed MPI_File_sync.
func (x *rankCtx) sync(f *mpiio.File) {
	x.timed(mpiio.ListIO, 0, 0, func() error { f.Sync(x.p); return nil }, nil)
}

// verify reads this rank's quarter of the file back contiguously, through
// plain PVFS reads, and counts the bytes that differ from the image.
func (x *rankCtx) verify(fh *pvfs.FileHandle, img []byte) {
	per := (int64(len(img)) + nRanks - 1) / nRanks
	lo := int64(x.id) * per
	hi := min(lo+per, int64(len(img)))
	for off := lo; off < hi; off += verifyChunk {
		n := min(hi-off, verifyChunk)
		seg := []ib.SGE{{Addr: x.st.vbuf, Len: n}}
		if err := fh.Read(x.p, x.st.vbuf, n, off, pvfs.OpOptions{}); err != nil {
			x.b.problem("rank %d: read-back: %v", x.id, err)
			x.b.mismatch += n
			continue
		}
		sp := x.b.spans.start("verify")
		x.b.mismatch += diffBytes(img[off:off+n], x.gather(seg))
		sp.end()
	}
}

// finish ends a round that wrote a fresh file: once every rank is done the
// file is read back against its image, then removed.
func (x *rankCtx) finish(name string, fh *pvfs.FileHandle, img []byte) {
	x.rank.Barrier(x.p)
	x.verify(fh, img)
	x.rank.Barrier(x.p)
	if x.id == 0 {
		x.remove(name)
	}
}

// verifyAll is the final contiguous read-back of every live file.
func (b *bench) verifyAll() {
	names := sortedKeys(b.images)
	b.ranks(func(x *rankCtx) {
		for _, name := range names {
			x.verify(x.cl.Open(x.p, name), b.images[name])
		}
	})
}

// remove deletes a file and forgets its image; call from one rank after a
// barrier.
func (x *rankCtx) remove(name string) {
	mpiio.Delete(x.p, x.cl, name)
	img := x.b.images[name]
	clear(img)
	x.b.retired[name] = img
	delete(x.b.images, name)
}

// resources is the quiescence baseline: adapter pinning on every node.
type resources struct {
	pinned int64
	mrs    int
}

// settle flushes every client's pin-down cache, so that what stays pinned
// is what the cluster pinned statically, and returns the totals.
func (b *bench) settle() resources {
	b.ranks(func(x *rankCtx) {
		if err := x.cl.RegCache().Flush(x.p); err != nil {
			b.problem("rank %d: flushing the pin-down cache: %v", x.id, err)
		}
	})
	var r resources
	for _, cl := range b.c.Clients {
		r.pinned += cl.HCA().PinnedBytes()
		r.mrs += cl.HCA().NumMRs()
	}
	for _, s := range b.c.Servers {
		r.pinned += s.HCA().PinnedBytes()
		r.mrs += s.HCA().NumMRs()
	}
	return r
}

// checkQuiescent counts every resource that did not return to the
// post-set-up baseline as one failed operation.
func (b *bench) checkQuiescent(base resources) {
	b.attempted++
	now := b.settle()
	if now != base {
		b.problem("resources at quiescence: pinned %d B in %d MRs, baseline %d B in %d MRs",
			now.pinned, now.mrs, base.pinned, base.mrs)
	}
	if n := b.c.Eng.Pending(); n != 0 {
		b.problem("engine has %d pending events at quiescence", n)
	}
}

// hostCost is what one stretch of the Go program cost on the host clock.
type hostCost struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// measure runs fn and returns its host cost.
func measure(fn func()) hostCost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	//pvfslint:ok detcheck host_* metrics are host-clock readings by definition; they never feed the virtual timeline
	t0 := time.Now()
	fn()
	//pvfslint:ok detcheck host_* metrics are host-clock readings by definition; they never feed the virtual timeline
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return hostCost{wall: wall, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of sorted ns.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
