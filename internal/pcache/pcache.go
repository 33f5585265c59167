// Package pcache is a client-side page cache layered between the MPI-IO /
// facade layers and the PVFS client library. It is the buffer-cache tier
// the paper's authors built next (the OrangeFS CREDITS records "buffer
// cache development" as Jiesheng Wu's follow-on project): noncontiguous
// workloads are dominated by many small regions, and a client cache turns
// them into a few large list-I/O exchanges.
//
// Three mechanisms carry the design:
//
//   - Write-behind. Writes land in fixed-size cache pages carved from one
//     pooled arena allocation; each page tracks a dirty byte hull. A flush
//     — triggered by a dirty high-water mark, Sync, Close, or a lease
//     recall — sorts the dirty pages and drains them as a single
//     offset-length list write, so hundreds of small strided writes
//     coalesce into one wire exchange. The arena is registered through the
//     pin-down cache as one declared allocation (RegDeclared), so cached
//     registrations have real MR lifetimes.
//
//   - Strided read-ahead. A stride detector watches the sequence of missed
//     page numbers; after two consecutive equal deltas it prefetches along
//     the stride into otherwise-idle frames (prefetch never evicts).
//     Misses within one operation are batched: all absent pages are
//     fetched with a single list read.
//
//   - Lease coherence. Before caching, a client takes a per-file lease
//     from the metadata manager (read leases shared, write lease
//     exclusive). A conflicting open recalls the lease: the holder flushes
//     dirty pages, invalidates, and acks before the new lease is granted,
//     so no client ever reads stale bytes through the cache. Leases
//     survive iod crash/restart — flushes ride the client library's
//     idempotent chunk recovery — and the whole protocol is deterministic
//     under the fault plane.
//
// Every resident page is fully valid: a write miss that only partially
// covers a page first fills the page from the servers, then overlays. That
// invariant keeps the flush planner trivial (the dirty hull is always
// backed by valid bytes around it) and makes reads after partial writes
// correct without per-byte validity maps.
package pcache

import (
	"cmp"
	"fmt"
	"slices"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/stats"
	"pvfsib/internal/trace"
)

// Config sizes one cached file. The zero value of any field is replaced by
// the default.
type Config struct {
	// PageSize is the cache page size in bytes (default 64 KiB, the
	// cluster's stripe size — one page maps to one stripe fragment).
	PageSize int64
	// Pages is the frame count; the arena is Pages×PageSize bytes
	// (default 64 frames = 4 MiB).
	Pages int
	// DirtyHighWater triggers a write-behind flush when this many frames
	// are dirty (default Pages/2).
	DirtyHighWater int
	// ReadAhead caps the pages prefetched per confirmed stride (default
	// 4; 0 disables read-ahead).
	ReadAhead int
	// NoReadAhead disables prefetching entirely (ablation switch).
	NoReadAhead bool
	// WriteThrough disables write-behind: writes update resident pages
	// (keeping the read cache fresh) but go to the servers synchronously,
	// unbatched. The ablation baseline for the cache experiment.
	WriteThrough bool
}

// DefaultConfig returns the production configuration.
func DefaultConfig() Config {
	return Config{PageSize: 64 << 10, Pages: 64, DirtyHighWater: 32, ReadAhead: 4}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.PageSize <= 0 {
		c.PageSize = d.PageSize
	}
	if c.Pages <= 0 {
		c.Pages = d.Pages
	}
	if c.DirtyHighWater <= 0 {
		c.DirtyHighWater = c.Pages / 2
		if c.DirtyHighWater < 1 {
			c.DirtyHighWater = 1
		}
	}
	if c.ReadAhead <= 0 {
		c.ReadAhead = d.ReadAhead
	}
	if c.NoReadAhead {
		c.ReadAhead = 0
	}
	return c
}

// leaseMode is the client's view of its lease on the file.
type leaseMode int8

const (
	leaseNone leaseMode = iota
	leaseRead
	leaseWrite
)

// frame is one cache page slot in the arena.
type frame struct {
	pno    int64 // file page number, valid when used
	used   bool
	refbit bool // clock second-chance bit
	dirty  bool
	// Dirty byte hull [dLo, dHi) within the page; the flush planner
	// writes only the hull, so file sizes match uncached semantics.
	dLo, dHi int64
}

// File is one cached open file on one client. All methods must be called
// from simulation processes; a single mutex serializes cache state across
// the application processes and the lease-recall daemon.
type File struct {
	fh   *pvfs.FileHandle
	cl   *pvfs.Client
	clu  *pvfs.Cluster
	acct *stats.Acct // the owning client's counter set, for CoalescedFlushes
	cfg  Config

	// mx points at the owning client's page-cache instrument handles. Its
	// counters write through to the client's Acct, metrics on or off; the
	// gauges are zero-value sinks with metrics off. The client's gauges
	// aggregate across all its caches, so each File contributes occupancy
	// deltas from its last sample (mxRes/mxDirty) rather than absolute
	// values.
	mx      *pvfs.CacheMetrics
	mxRes   int64
	mxDirty int64

	mu        *sim.Resource
	arena     mem.Extent
	frames    []frame
	table     map[int64]int32 // page number -> frame index
	clockHand int
	nDirty    int
	det       Detector
	mode      leaseMode
	node      string
	ibp       ib.Params
	closed    bool

	// hook registers the cache for the file's lease recalls (onRecall).
	hook pvfs.RecallHook

	// Scratch reused across slow-path operations. fetchLocked works from
	// its own fill/fillFrames: the frames it takes may flush, and a flush
	// reuses pnos, fsegs and faccs.
	pnos       []int64
	fsegs      []ib.SGE
	faccs      []pvfs.OffLen
	fill       []int64
	fillFrames []int32
}

// New attaches a page cache to an open file. The arena is allocated
// immediately; leases are acquired lazily on first access. Multiple caches
// on one client for the same file are legal (each registers its own recall
// hook) but pointless; one cache per (client, file) is the intended shape.
func New(fh *pvfs.FileHandle, cfg Config) *File { return Reuse(nil, fh, cfg) }

// Reuse attaches a page cache to an open file as New does, rebuilt in old
// when old is a closed cache of the same client with frames enough for the
// configuration, and in a fresh record otherwise. A rebuilt record keeps
// its frame and page tables, its slow-path scratch and its mutex, and reads
// in every other field as a fresh one: no page, no lease, a reset stride
// detector, nothing dirty and nothing sampled into the client's gauges.
// Its arena is allocated anew all the same — the pin-down cache knows
// registrations by address, and an arena at the old address would hit
// registrations a fresh one misses.
func Reuse(old *File, fh *pvfs.FileHandle, cfg Config) *File {
	cfg = cfg.withDefaults()
	cl := fh.Client()
	clu := cl.Cluster()
	f := old
	if f == nil || !f.closed || f.cl != cl || cap(f.frames) < cfg.Pages {
		f = &File{
			frames: make([]frame, cfg.Pages),
			table:  make(map[int64]int32, cfg.Pages),
			// Named after the client alone: the record may serve one
			// file after another.
			mu: clu.Eng.NewResource("pcache@"+cl.Node().Name, 1),
		}
	}
	frames := f.frames[:cfg.Pages]
	clear(frames)
	clear(f.table)
	size := int64(cfg.Pages) * cfg.PageSize
	*f = File{
		fh:         fh,
		cl:         cl,
		clu:        clu,
		acct:       cl.Acct(),
		mx:         cl.CacheMetrics(),
		cfg:        cfg,
		arena:      mem.Extent{Addr: cl.Space().Malloc(size), Len: size},
		frames:     frames,
		table:      f.table,
		node:       cl.Node().Name,
		ibp:        clu.Cfg.IB,
		mu:         f.mu,
		pnos:       f.pnos[:0],
		fsegs:      f.fsegs[:0],
		faccs:      f.faccs[:0],
		fill:       f.fill[:0],
		fillFrames: f.fillFrames[:0],
	}
	fh.OnLeaseRecall(&f.hook, (*recaller)(f))
	return f
}

// recaller is the cache as its recall hook sees it.
type recaller File

func (r *recaller) Recall(p *sim.Proc) { (*File)(r).onRecall(p) }

// Handle returns the underlying uncached file handle.
func (f *File) Handle() *pvfs.FileHandle { return f.fh }

// sampleMX re-samples the occupancy gauges from the table and dirty
// count, emitting only the delta since the last sample. Call with the
// mutex held, after any state change, before releasing it.
func (f *File) sampleMX(p *sim.Proc) {
	if res := int64(len(f.table)); res != f.mxRes {
		f.mx.Resident.Add(p.Now(), res-f.mxRes)
		f.mxRes = res
	}
	if d := int64(f.nDirty); d != f.mxDirty {
		f.mx.Dirty.Add(p.Now(), d-f.mxDirty)
		f.mxDirty = d
	}
}

// frameAddr returns the arena address of frame i.
func (f *File) frameAddr(i int32) mem.Addr {
	return f.arena.Addr + mem.Addr(int64(i)*f.cfg.PageSize)
}

// covered reports whether the currently held lease mode permits the access.
func (f *File) covered(write bool) bool {
	return f.mode == leaseWrite || (!write && f.mode == leaseRead)
}

// pieceWalker yields maximal fragments that are contiguous in the file, in
// memory, and within one cache page, walking memSegs against fileAccs in
// order. It holds no heap state, keeping the cache-hit path allocation
// free.
type pieceWalker struct {
	segs     []ib.SGE
	accs     []pvfs.OffLen
	ai, si   int
	aoff     int64
	soff     int64
	pageSize int64
}

func (w *pieceWalker) next() (off int64, addr mem.Addr, n int64, ok bool) {
	for w.ai < len(w.accs) && w.aoff >= w.accs[w.ai].Len {
		w.ai++
		w.aoff = 0
	}
	for w.si < len(w.segs) && w.soff >= w.segs[w.si].Len {
		w.si++
		w.soff = 0
	}
	if w.ai >= len(w.accs) || w.si >= len(w.segs) {
		return 0, 0, 0, false
	}
	acc := w.accs[w.ai]
	seg := w.segs[w.si]
	off = acc.Off + w.aoff
	addr = seg.Addr + mem.Addr(w.soff)
	n = acc.Len - w.aoff
	if r := seg.Len - w.soff; r < n {
		n = r
	}
	if r := w.pageSize - off%w.pageSize; r < n {
		n = r
	}
	w.aoff += n
	w.soff += n
	return off, addr, n, true
}

// validate rejects malformed piece lists before any cache state changes.
func validate(segs []ib.SGE, accs []pvfs.OffLen) error {
	var ms, fs int64
	for _, s := range segs {
		if s.Len < 0 {
			return fmt.Errorf("pcache: negative segment length %d", s.Len)
		}
		ms += s.Len
	}
	for _, a := range accs {
		if a.Len < 0 || a.Off < 0 {
			return fmt.Errorf("pcache: bad file access {%d,%d}", a.Off, a.Len)
		}
		fs += a.Len
	}
	if ms != fs {
		return fmt.Errorf("pcache: memory total %d != file total %d", ms, fs)
	}
	return nil
}

// WriteList writes through the cache: pvfs_write_list semantics, any number
// of memory segments and file regions, one logical operation.
func (f *File) WriteList(p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen) error {
	return f.listOp(p, memSegs, fileAccs, true)
}

// ReadList reads through the cache; regions beyond end-of-file read as
// zeros, as in the uncached path.
func (f *File) ReadList(p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen) error {
	return f.listOp(p, memSegs, fileAccs, false)
}

// Write is the contiguous special case of WriteList.
func (f *File) Write(p *sim.Proc, addr mem.Addr, n, off int64) error {
	return f.WriteList(p, []ib.SGE{{Addr: addr, Len: n}}, []pvfs.OffLen{{Off: off, Len: n}})
}

// Read is the contiguous special case of ReadList.
func (f *File) Read(p *sim.Proc, addr mem.Addr, n, off int64) error {
	return f.ReadList(p, []ib.SGE{{Addr: addr, Len: n}}, []pvfs.OffLen{{Off: off, Len: n}})
}

func (f *File) listOp(p *sim.Proc, segs []ib.SGE, accs []pvfs.OffLen, write bool) error {
	if f.closed {
		return fmt.Errorf("pcache: %s: operation on closed cache", f.fh.Name())
	}
	if err := validate(segs, accs); err != nil {
		return err
	}
	total := ib.TotalLen(segs)
	if total == 0 {
		return nil
	}
	if done, err := f.tryFast(p, segs, accs, write, total); done || err != nil {
		return err
	}
	if err := f.lockWithLease(p, write); err != nil {
		return err
	}
	kind := "cache.read"
	if write {
		kind = "cache.write"
	}
	prevCtx := p.TraceCtx()
	sp := f.startSpan(p, kind, trace.StageOther, total)
	if sp.Recording() {
		sp.Annotate("segs=%d accs=%d", len(segs), len(accs))
		p.SetTraceCtx(uint64(sp.Ctx()))
	}
	err := f.runLocked(p, segs, accs, write, total)
	f.sampleMX(p)
	p.SetTraceCtx(prevCtx)
	sp.EndErr(p.Now(), err)
	f.mu.Release()
	return err
}

// startSpan opens a span on the current request, or mints a fresh request
// when the caller has none (direct facade use without an MPI-IO wrapper).
func (f *File) startSpan(p *sim.Proc, kind string, stage trace.Stage, bytes int64) trace.Span {
	tr := f.clu.Spans
	if tr == nil {
		return trace.Span{}
	}
	var sp trace.Span
	if ctx := trace.Ctx(p.TraceCtx()); ctx != 0 {
		sp = tr.Start(p.Now(), ctx, f.node, kind, stage)
	} else {
		sp = tr.NewRequest(p.Now(), f.node, kind)
	}
	sp.SetBytes(bytes)
	return sp
}

// lockWithLease acquires the cache mutex with a covering lease held,
// re-validating after every blocking gap: a recall can strip the lease
// while the process waits on the mutex or the manager round trip.
func (f *File) lockWithLease(p *sim.Proc, write bool) error {
	for {
		f.mu.Acquire(p)
		if f.covered(write) {
			return nil
		}
		f.mu.Release()
		if err := f.fh.AcquireLease(p, write); err != nil {
			return err
		}
		// No blocking between the grant returning and these assignments,
		// so the mode cannot be stale here; the loop re-checks under the
		// mutex anyway.
		if write {
			f.mode = leaseWrite
		} else if f.mode != leaseWrite {
			f.mode = leaseRead
		}
	}
}

// tryFast serves an operation whose pages are all resident without leaving
// the client: a map lookup and one memcpy charge per fragment. Returns
// done=false to route to the slow path (any miss, lease not held, dirty
// high water would trip, or write-through mode).
//
// This is the cache's steady-state hit path: zero allocations per
// operation. Blocking is its job — the mutex acquire and the memcpy-time
// sleep park the process by design.
func (f *File) tryFast(p *sim.Proc, segs []ib.SGE, accs []pvfs.OffLen, write bool, total int64) (bool, error) {
	f.mu.Acquire(p)
	if !f.covered(write) || (write && f.cfg.WriteThrough) {
		f.mu.Release()
		return false, nil
	}
	// Pass 1: residency, user-buffer validity, and dirty-growth check.
	// newDirty may overcount a page touched by several fragments; the only
	// cost is an occasional early trip to the slow path's flusher.
	newDirty := 0
	w := pieceWalker{segs: segs, accs: accs, pageSize: f.cfg.PageSize}
	for {
		off, addr, n, ok := w.next()
		if !ok {
			break
		}
		fi, resident := f.table[off/f.cfg.PageSize]
		if !resident {
			f.mu.Release()
			return false, nil
		}
		if !f.cl.Space().Allocated(mem.Extent{Addr: addr, Len: n}) {
			f.mu.Release()
			return false, fmt.Errorf("pcache: user buffer %v unallocated", mem.Extent{Addr: addr, Len: n})
		}
		if write && !f.frames[fi].dirty {
			newDirty++
		}
	}
	if write && f.nDirty+newDirty >= f.cfg.DirtyHighWater {
		f.mu.Release()
		return false, nil
	}
	// Pass 2: copy fragments between user memory and frames.
	sp := f.clu.Spans.Start(p.Now(), trace.Ctx(p.TraceCtx()), f.node, "cache.hit", trace.StagePack)
	sp.SetBytes(total)
	space := f.cl.Space()
	w = pieceWalker{segs: segs, accs: accs, pageSize: f.cfg.PageSize}
	for {
		off, addr, n, ok := w.next()
		if !ok {
			break
		}
		po := off % f.cfg.PageSize
		fi := f.table[off/f.cfg.PageSize]
		fr := &f.frames[fi]
		fr.refbit = true
		pa := f.frameAddr(fi) + mem.Addr(po)
		var err error
		if write {
			err = space.Copy(pa, addr, n)
		} else {
			err = space.Copy(addr, pa, n)
		}
		if err != nil {
			// Pass 1 validated both ranges; reaching here is a model bug.
			sim.Failf("pcache: hit copy: %v", err)
		}
		if write {
			if !fr.dirty {
				fr.dirty = true
				fr.dLo, fr.dHi = po, po+n
				f.nDirty++
			} else {
				if po < fr.dLo {
					fr.dLo = po
				}
				if po+n > fr.dHi {
					fr.dHi = po + n
				}
			}
		}
	}
	f.mx.Hits.Add(p.Now(), 1)
	f.sampleMX(p)
	p.Sleep(f.ibp.MemcpyTime(total))
	sp.End(p.Now())
	f.mu.Release()
	return true, nil
}

// runLocked is the slow path: fills, prefetch, eviction, write-through,
// and oversized-operation bypass. Called with the mutex held and a
// covering lease.
func (f *File) runLocked(p *sim.Proc, segs []ib.SGE, accs []pvfs.OffLen, write bool, total int64) error {
	ps := f.cfg.PageSize
	// Operations larger than half the arena bypass the cache: caching them
	// would evict everything for no reuse. Flush first so the servers hold
	// every dirty byte, and for writes drop newly-stale resident pages.
	if total > f.arena.Len/2 {
		if err := f.flushLocked(p); err != nil {
			return err
		}
		if write {
			f.dropOverlapping(accs)
			return f.fh.WriteList(p, segs, accs, pvfs.OpOptions{})
		}
		return f.fh.ReadList(p, segs, accs, pvfs.OpOptions{})
	}
	if write && f.cfg.WriteThrough {
		return f.writeThroughLocked(p, segs, accs, total)
	}
	// Collect the operation's absent pages, deduplicated and sorted.
	f.pnos = f.pnos[:0]
	w := pieceWalker{segs: segs, accs: accs, pageSize: ps}
	for {
		off, _, _, ok := w.next()
		if !ok {
			break
		}
		if _, resident := f.table[off/ps]; !resident {
			f.pnos = append(f.pnos, off/ps)
		}
	}
	slices.Sort(f.pnos)
	f.pnos = dedupSorted(f.pnos)
	misses := len(f.pnos)
	// Read-ahead: feed the detector in access order, then extend the fetch
	// list along a confirmed stride — but only into frames that are free
	// right now; prefetch never evicts.
	ra := 0
	if !write && misses > 0 {
		for _, pno := range f.pnos {
			f.det.Observe(pno)
		}
		if stride, ok := f.det.Stride(); ok {
			free := len(f.frames) - len(f.table) - misses
			next := f.det.Last() + stride
			for i := 0; i < f.cfg.ReadAhead && free > 0; i++ {
				if next < 0 {
					break
				}
				if _, resident := f.table[next]; !resident && !containsPno(f.pnos, next) {
					f.pnos = append(f.pnos, next)
					ra++
					free--
				}
				next += stride
			}
		}
	}
	if len(f.pnos) > 0 {
		if err := f.fetchLocked(p, misses, ra); err != nil {
			return err
		}
	}
	// All pages resident: copy fragments, dirtying hulls on writes.
	space := f.cl.Space()
	w = pieceWalker{segs: segs, accs: accs, pageSize: ps}
	for {
		off, addr, n, ok := w.next()
		if !ok {
			break
		}
		po := off % ps
		fi, resident := f.table[off/ps]
		if !resident {
			sim.Failf("pcache: page %d absent after fetch", off/ps)
		}
		fr := &f.frames[fi]
		fr.refbit = true
		pa := f.frameAddr(fi) + mem.Addr(po)
		var err error
		if write {
			err = space.Copy(pa, addr, n)
		} else {
			err = space.Copy(addr, pa, n)
		}
		if err != nil {
			return fmt.Errorf("pcache: copy: %w", err)
		}
		if write {
			if !fr.dirty {
				fr.dirty = true
				fr.dLo, fr.dHi = po, po+n
				f.nDirty++
			} else {
				if po < fr.dLo {
					fr.dLo = po
				}
				if po+n > fr.dHi {
					fr.dHi = po + n
				}
			}
		}
	}
	p.Sleep(f.ibp.MemcpyTime(total))
	if write && f.nDirty >= f.cfg.DirtyHighWater {
		return f.flushLocked(p)
	}
	return nil
}

// writeThroughLocked is the ablation path: refresh resident overlap so the
// read cache stays coherent, then push the whole operation synchronously.
func (f *File) writeThroughLocked(p *sim.Proc, segs []ib.SGE, accs []pvfs.OffLen, total int64) error {
	ps := f.cfg.PageSize
	space := f.cl.Space()
	var overlap int64
	w := pieceWalker{segs: segs, accs: accs, pageSize: ps}
	for {
		off, addr, n, ok := w.next()
		if !ok {
			break
		}
		fi, resident := f.table[off/ps]
		if !resident {
			continue
		}
		fr := &f.frames[fi]
		fr.refbit = true
		pa := f.frameAddr(fi) + mem.Addr(off%ps)
		if err := space.Copy(pa, addr, n); err != nil {
			return fmt.Errorf("pcache: write-through refresh: %w", err)
		}
		overlap += n
	}
	if overlap > 0 {
		p.Sleep(f.ibp.MemcpyTime(overlap))
	}
	return f.fh.WriteList(p, segs, accs, pvfs.OpOptions{})
}

// fetchLocked brings the pages in f.pnos (sorted; first `misses` are
// demand misses, last `ra` are prefetch) into frames with one list read.
func (f *File) fetchLocked(p *sim.Proc, misses, ra int) error {
	ps := f.cfg.PageSize
	slices.Sort(f.pnos)
	// Work from a copy: takeFrameLocked may flush, and flushLocked reuses
	// the shared scratch slices (f.pnos, f.fsegs, f.faccs).
	pnos := append(f.fill[:0], f.pnos...)
	frames := f.fillFrames[:0]
	f.fill = pnos
	for range pnos {
		fi, err := f.takeFrameLocked(p)
		if err != nil {
			return err
		}
		frames = append(frames, fi)
	}
	f.fillFrames = frames
	f.fsegs = f.fsegs[:0]
	f.faccs = f.faccs[:0]
	for i, pno := range pnos {
		f.fsegs = append(f.fsegs, ib.SGE{Addr: f.frameAddr(frames[i]), Len: ps})
		f.faccs = append(f.faccs, pvfs.OffLen{Off: pno * ps, Len: ps})
	}
	prevCtx := p.TraceCtx()
	sp := f.startSpan(p, "cache.fill", trace.StageOther, int64(len(pnos))*ps)
	if sp.Recording() {
		sp.Annotate("miss=%d ra=%d", misses, ra)
		p.SetTraceCtx(uint64(sp.Ctx()))
	}
	err := f.fh.ReadList(p, f.fsegs, f.faccs, f.arenaOpts())
	p.SetTraceCtx(prevCtx)
	sp.EndErr(p.Now(), err)
	if err != nil {
		return fmt.Errorf("pcache: fill: %w", err)
	}
	for i, pno := range pnos {
		fr := &f.frames[frames[i]]
		fr.pno = pno
		fr.used = true
		fr.refbit = true
		fr.dirty = false
		f.table[pno] = frames[i]
	}
	f.mx.Misses.Add(p.Now(), int64(misses))
	f.mx.ReadAheads.Add(p.Now(), int64(ra))
	return nil
}

// arenaOpts registers the whole arena as one declared allocation through
// the pin-down cache: one MR covers every frame, with a real lifetime.
func (f *File) arenaOpts() pvfs.OpOptions {
	return pvfs.OpOptions{Reg: pvfs.RegDeclared, Allocation: f.arena}
}

// takeFrameLocked returns a free frame index, evicting (clock,
// second-chance) a clean page or — when every frame is dirty — flushing
// first. Never returns a frame that is still in the page table.
func (f *File) takeFrameLocked(p *sim.Proc) (int32, error) {
	for pass := 0; pass < 2; pass++ {
		// Sweep at most two full turns: the first turn clears refbits, the
		// second must find a victim among clean frames.
		for sweep := 0; sweep < 2*len(f.frames); sweep++ {
			i := f.clockHand
			f.clockHand = (f.clockHand + 1) % len(f.frames)
			fr := &f.frames[i]
			if !fr.used {
				return int32(i), nil
			}
			if fr.dirty {
				continue
			}
			if fr.refbit {
				fr.refbit = false
				continue
			}
			delete(f.table, fr.pno)
			fr.used = false
			return int32(i), nil
		}
		// Every frame dirty (or pinned by refbits that never cleared —
		// impossible, the first turn clears them): flush and retry.
		if err := f.flushLocked(p); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("pcache: no evictable frame after flush")
}

// flushLocked drains every dirty page as one coalesced list write, sorted
// by page number. On error the pages stay dirty for a later retry (the
// client library has already retried transient faults internally).
func (f *File) flushLocked(p *sim.Proc) error {
	if f.nDirty == 0 {
		return nil
	}
	ps := f.cfg.PageSize
	f.pnos = f.pnos[:0] // frame indices, sorted by page number below
	for i := range f.frames {
		if f.frames[i].used && f.frames[i].dirty {
			f.pnos = append(f.pnos, int64(i))
		}
	}
	slices.SortFunc(f.pnos, func(a, b int64) int {
		return cmp.Compare(f.frames[a].pno, f.frames[b].pno)
	})
	f.fsegs = f.fsegs[:0]
	f.faccs = f.faccs[:0]
	var nbytes int64
	for _, i := range f.pnos {
		fr := &f.frames[i]
		n := fr.dHi - fr.dLo
		f.fsegs = append(f.fsegs, ib.SGE{Addr: f.frameAddr(int32(i)) + mem.Addr(fr.dLo), Len: n})
		f.faccs = append(f.faccs, pvfs.OffLen{Off: fr.pno*ps + fr.dLo, Len: n})
		nbytes += n
	}
	prevCtx := p.TraceCtx()
	sp := f.startSpan(p, "cache.flush", trace.StageOther, nbytes)
	if sp.Recording() {
		sp.Annotate("pages=%d", len(f.pnos))
		p.SetTraceCtx(uint64(sp.Ctx()))
	}
	err := f.fh.WriteList(p, f.fsegs, f.faccs, f.arenaOpts())
	p.SetTraceCtx(prevCtx)
	sp.EndErr(p.Now(), err)
	if err != nil {
		return fmt.Errorf("pcache: flush: %w", err)
	}
	if len(f.pnos) > 1 {
		f.acct.CoalescedFlushes++
	}
	f.mx.WBBytes.Add(p.Now(), nbytes)
	for _, i := range f.pnos {
		f.frames[i].dirty = false
	}
	f.nDirty = 0
	f.sampleMX(p)
	return nil
}

// dropOverlapping invalidates resident pages that a bypassing direct write
// is about to make stale. Dirty overlap must already have been flushed.
func (f *File) dropOverlapping(accs []pvfs.OffLen) {
	ps := f.cfg.PageSize
	for _, a := range accs {
		if a.Len <= 0 {
			continue
		}
		for pno := a.Off / ps; pno <= (a.Off+a.Len-1)/ps; pno++ {
			if fi, resident := f.table[pno]; resident {
				f.frames[fi].used = false
				delete(f.table, pno)
			}
		}
	}
}

// invalidateLocked discards every resident page. Dirty pages must have
// been flushed first.
func (f *File) invalidateLocked() {
	for i := range f.frames {
		if f.frames[i].used {
			delete(f.table, f.frames[i].pno)
			f.frames[i] = frame{}
		}
	}
	f.nDirty = 0
	f.det.Reset()
}

// onRecall is the lease-recall hook, run on the client's recall daemon:
// flush, invalidate, drop the lease, and let the daemon ack. A duplicate
// delivery (resent recall after a lost ack) finds nothing dirty and nothing
// resident — a no-op.
func (f *File) onRecall(p *sim.Proc) {
	f.mu.Acquire(p)
	sp := f.startSpan(p, "cache.recall", trace.StageOther, 0)
	f.mx.Recalls.Add(p.Now(), 1)
	err := f.flushLocked(p)
	sp.EndErr(p.Now(), err)
	if err != nil {
		// The flush already rode the full fault-recovery ladder; an error
		// here means dirty bytes cannot reach the servers at all, and
		// acking the recall would hand another client a lease over lost
		// data. There is no correct way to continue.
		sim.Failf("pcache: %s: recall flush failed: %v", f.fh.Name(), err)
	}
	f.invalidateLocked()
	f.sampleMX(p)
	f.mode = leaseNone
	f.mu.Release()
}

// Flush drains all dirty pages without invalidating them.
func (f *File) Flush(p *sim.Proc) error {
	f.mu.Acquire(p)
	err := f.flushLocked(p)
	f.mu.Release()
	return err
}

// Sync flushes dirty pages and then fsyncs the file on every server.
func (f *File) Sync(p *sim.Proc) error {
	if err := f.Flush(p); err != nil {
		return err
	}
	f.fh.Sync(p)
	return nil
}

// Stat flushes write-behind state and returns the file's logical size, so
// cached and uncached Stat agree.
func (f *File) Stat(p *sim.Proc) (int64, error) {
	if err := f.Flush(p); err != nil {
		return 0, err
	}
	return f.fh.Stat(p), nil
}

// Invalidate flushes and then discards every cached page (the lease is
// kept). Mainly for tests and the pvfsctl `cache flush` command.
func (f *File) Invalidate(p *sim.Proc) error {
	f.mu.Acquire(p)
	err := f.flushLocked(p)
	if err == nil {
		f.invalidateLocked()
	}
	f.sampleMX(p)
	f.mu.Release()
	return err
}

// Close flushes, invalidates, releases the lease, and detaches the recall
// hook; Reuse may then rebuild the record for another file. The arena
// stays allocated: its registration may live on in the pin-down cache, and
// simulated process memory is reclaimed with the address space.
func (f *File) Close(p *sim.Proc) error {
	if f.closed {
		return nil
	}
	f.mu.Acquire(p)
	err := f.flushLocked(p)
	if err == nil {
		f.invalidateLocked()
		f.closed = true
	}
	f.sampleMX(p)
	f.mu.Release()
	if err != nil {
		return err
	}
	f.hook.Unregister()
	if f.mode != leaseNone {
		f.mode = leaseNone
		if err := f.fh.ReleaseLease(p); err != nil {
			return err
		}
	}
	return nil
}

// Resident reports the number of cached pages and how many are dirty.
func (f *File) Resident() (pages, dirty int) { return len(f.table), f.nDirty }

// dedupSorted compacts equal neighbors in place.
func dedupSorted(s []int64) []int64 {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func containsPno(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
