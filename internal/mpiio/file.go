package mpiio

import (
	"fmt"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// Method selects one of ROMIO's ways to service a noncontiguous access.
type Method int

const (
	// MultipleIO performs one contiguous PVFS operation per contiguous
	// piece.
	MultipleIO Method = iota
	// DataSieving is ROMIO's client-side sieving. Reads fetch the whole
	// extent in windows and extract the wanted pieces; writes fall back
	// to MultipleIO because PVFS provides no client file locking
	// (Section 5.2).
	DataSieving
	// ListIO uses pvfs_read_list/pvfs_write_list with server-side
	// sieving disabled.
	ListIO
	// ListIOADS is ListIO with Active Data Sieving on the servers.
	ListIOADS
	// Collective is two-phase collective I/O; every rank of the file's
	// world must call the operation.
	Collective
)

func (m Method) String() string {
	switch m {
	case MultipleIO:
		return "multiple"
	case DataSieving:
		return "datasieving"
	case ListIO:
		return "listio"
	case ListIOADS:
		return "listio+ads"
	case Collective:
		return "collective"
	}
	return "unknown"
}

// DefaultDSBufferSize matches ROMIO's ind_rd_buffer_size default window.
const DefaultDSBufferSize = 4 << 20

// File is an open MPI-IO file on one rank.
type File struct {
	client *pvfs.Client
	// fh is held by value, so an open allocates only the File.
	fh   pvfs.FileHandle
	rank *mpi.Rank // nil when opened without a world (independent only)

	view    View
	hasView bool
	ptr     int64 // individual file pointer, in view bytes

	dsBuf     mem.Addr
	dsBufSize int64

	// tpBuf is the two-phase collective assembly buffer, grown on demand.
	tpBuf     mem.Addr
	tpBufSize int64
	// cbWindow overrides the per-rank collective buffering window
	// (ROMIO's cb_buffer_size); zero means the default.
	cbWindow int64
	// st is the client's MPI-IO state, which holds the descriptor scratch.
	st *clientState

	// cache, when non-nil, is the client-side page cache the independent
	// list methods route through (see EnableCache).
	cache *pcache.File
}

// SetCollectiveBuffer overrides the per-rank two-phase window size, like
// setting ROMIO's cb_buffer_size hint. Zero restores the default.
func (f *File) SetCollectiveBuffer(n int64) { f.cbWindow = n }

// Open opens (creating if necessary) the named PVFS file for the client.
// rank may be nil if collective operations will not be used.
func Open(p *sim.Proc, client *pvfs.Client, rank *mpi.Rank, name string) *File {
	f := &File{
		client:    client,
		fh:        client.OpenHandle(p, name, 0),
		rank:      rank,
		dsBufSize: DefaultDSBufferSize,
		st:        stateOf(client),
	}
	f.dsBuf = client.Space().Malloc(f.dsBufSize)
	return f
}

// Handle returns the underlying PVFS file handle.
func (f *File) Handle() *pvfs.FileHandle { return &f.fh }

// SetView installs an MPI-IO file view and resets the individual file
// pointer, as MPI_File_set_view does.
func (f *File) SetView(v View) {
	f.view = v
	f.hasView = true
	f.ptr = 0
}

// ViewRegions maps [viewOff, viewOff+n) of the current view to absolute
// file regions; without a view the mapping is the identity.
func (f *File) ViewRegions(viewOff, n int64) ([]pvfs.OffLen, error) {
	if !f.hasView {
		return []pvfs.OffLen{{Off: viewOff, Len: n}}, nil
	}
	return f.view.Map(viewOff, n)
}

// WriteView writes n bytes from the memory segments through the view at
// view offset viewOff using the given method.
func (f *File) WriteView(p *sim.Proc, method Method, memSegs []ib.SGE, viewOff, n int64) error {
	accs, err := f.ViewRegions(viewOff, n)
	if err != nil {
		return err
	}
	return f.Write(p, method, memSegs, accs)
}

// ReadView reads n bytes through the view into the memory segments.
func (f *File) ReadView(p *sim.Proc, method Method, memSegs []ib.SGE, viewOff, n int64) error {
	accs, err := f.ViewRegions(viewOff, n)
	if err != nil {
		return err
	}
	return f.Read(p, method, memSegs, accs)
}

// EnableCache attaches a client-side page cache (write-behind, strided
// read-ahead, lease coherence — see internal/pcache) and returns it. The
// independent per-rank methods (MultipleIO, ListIO, ListIOADS) route
// through the cache; DataSieving reads and Collective operations keep
// their own buffering strategies and go direct, after flushing the cache
// so they never observe stale write-behind state. The cache returned is
// valid until DisableCache, which hands its record back to the client for
// the next EnableCache to rebuild.
func (f *File) EnableCache(cfg pcache.Config) *pcache.File {
	if f.cache == nil {
		f.cache = f.st.cache(&f.fh, cfg)
	}
	return f.cache
}

// Cache returns the attached page cache, nil when caching is off.
func (f *File) Cache() *pcache.File { return f.cache }

// DisableCache flushes and detaches the page cache. A cache that closed
// cleanly goes back to the client.
func (f *File) DisableCache(p *sim.Proc) error {
	if f.cache == nil {
		return nil
	}
	err := f.cache.Close(p)
	if err == nil {
		f.st.uncache(f.cache)
	}
	f.cache = nil
	return err
}

// drainCache flushes write-behind state ahead of a path that bypasses the
// cache; a clean (or absent) cache makes this a no-op.
func (f *File) drainCache(p *sim.Proc) error {
	if f.cache == nil {
		return nil
	}
	return f.cache.Flush(p)
}

// Sync flushes cached dirty pages (if caching is on) and then the file on
// all servers.
func (f *File) Sync(p *sim.Proc) {
	if f.cache != nil {
		sim.Must(f.cache.Sync(p))
		return
	}
	f.fh.Sync(p)
}

// startAccess mints the request-scoped root span for one MPI-IO access.
// The request ID is assigned here — the topmost layer that knows the
// access method — so every PVFS attempt, wire hop, sieve window, and
// disk transfer the access triggers shares one ID in the trace. Returns
// the span and the process's previous context for the caller to restore.
func (f *File) startAccess(p *sim.Proc, method Method, dir string, memSegs []ib.SGE) (trace.Span, uint64) {
	tr := f.client.Cluster().Spans
	prev := p.TraceCtx()
	if tr == nil {
		return trace.Span{}, prev
	}
	sp := tr.NewRequest(p.Now(), f.client.Node().Name, fmt.Sprintf("%s-%s", method, dir))
	sp.SetBytes(ib.TotalLen(memSegs))
	sp.Annotate("segs=%d", len(memSegs))
	p.SetTraceCtx(uint64(sp.Ctx()))
	return sp, prev
}

// Write performs a noncontiguous write with the given method. memSegs and
// fileAccs are flattened streams describing the same bytes in order.
func (f *File) Write(p *sim.Proc, method Method, memSegs []ib.SGE, fileAccs []pvfs.OffLen) error {
	sp, prev := f.startAccess(p, method, "write", memSegs)
	err := f.writeMethod(p, method, memSegs, fileAccs)
	p.SetTraceCtx(prev)
	sp.EndErr(p.Now(), err)
	return err
}

func (f *File) writeMethod(p *sim.Proc, method Method, memSegs []ib.SGE, fileAccs []pvfs.OffLen) error {
	switch method {
	case MultipleIO, DataSieving:
		// ROMIO data sieving cannot write-sieve over PVFS (no client
		// locking): identical to Multiple I/O, as the paper notes.
		return f.multiple(p, memSegs, fileAccs, true)
	case ListIO:
		if f.cache != nil {
			return f.cache.WriteList(p, memSegs, fileAccs)
		}
		return f.fh.WriteList(p, memSegs, fileAccs, pvfs.OpOptions{Sieve: sieve.Never})
	case ListIOADS:
		if f.cache != nil {
			return f.cache.WriteList(p, memSegs, fileAccs)
		}
		return f.fh.WriteList(p, memSegs, fileAccs, pvfs.OpOptions{Sieve: sieve.Auto})
	case Collective:
		if err := f.drainCache(p); err != nil {
			return err
		}
		return f.collectiveRounds(p, memSegs, fileAccs, (*File).collectiveWriteRound)
	}
	return fmt.Errorf("mpiio: unknown method %d", method)
}

// Read performs a noncontiguous read with the given method.
func (f *File) Read(p *sim.Proc, method Method, memSegs []ib.SGE, fileAccs []pvfs.OffLen) error {
	sp, prev := f.startAccess(p, method, "read", memSegs)
	err := f.readMethod(p, method, memSegs, fileAccs)
	p.SetTraceCtx(prev)
	sp.EndErr(p.Now(), err)
	return err
}

func (f *File) readMethod(p *sim.Proc, method Method, memSegs []ib.SGE, fileAccs []pvfs.OffLen) error {
	switch method {
	case MultipleIO:
		return f.multiple(p, memSegs, fileAccs, false)
	case DataSieving:
		if err := f.drainCache(p); err != nil {
			return err
		}
		return f.dsRead(p, memSegs, fileAccs)
	case ListIO:
		if f.cache != nil {
			return f.cache.ReadList(p, memSegs, fileAccs)
		}
		return f.fh.ReadList(p, memSegs, fileAccs, pvfs.OpOptions{Sieve: sieve.Never})
	case ListIOADS:
		if f.cache != nil {
			return f.cache.ReadList(p, memSegs, fileAccs)
		}
		return f.fh.ReadList(p, memSegs, fileAccs, pvfs.OpOptions{Sieve: sieve.Auto})
	case Collective:
		if err := f.drainCache(p); err != nil {
			return err
		}
		return f.collectiveRounds(p, memSegs, fileAccs, (*File).collectiveReadRound)
	}
	return fmt.Errorf("mpiio: unknown method %d", method)
}

// memCursor walks a stream of memory segments front to back.
type memCursor struct {
	segs []ib.SGE
	so   int64 // bytes of segs[0] already passed
}

// next steps past the rest of the current segment, or n bytes of it if that
// is less, and returns what it passed.
func (c *memCursor) next(n int64) ib.SGE {
	seg := c.segs[0]
	frag := ib.SGE{Addr: seg.Addr + mem.Addr(c.so), Len: min(seg.Len-c.so, n)}
	if c.so += frag.Len; c.so == seg.Len {
		c.segs, c.so = c.segs[1:], 0
	}
	return frag
}

// skip steps past the next n bytes.
func (c *memCursor) skip(n int64) {
	for n > 0 {
		n -= c.next(n).Len
	}
}

// take steps past the next n bytes and appends their fragments to dst.
func (c *memCursor) take(dst []ib.SGE, n int64) []ib.SGE {
	for n > 0 {
		frag := c.next(n)
		dst = append(dst, frag)
		n -= frag.Len
	}
	return dst
}

// forEachPiece walks the two aligned streams and yields, for every file
// region, the memory fragments carrying its bytes. The fragment slice is
// *scratch, reused from one region to the next and kept for the next call:
// fn must not retain it.
func forEachPiece(scratch *[]ib.SGE, memSegs []ib.SGE, fileAccs []pvfs.OffLen, fn func(acc pvfs.OffLen, segs []ib.SGE) error) error {
	if ib.TotalLen(memSegs) != pvfs.TotalOffLen(fileAccs) {
		return fmt.Errorf("mpiio: memory bytes (%d) != file bytes (%d)",
			ib.TotalLen(memSegs), pvfs.TotalOffLen(fileAccs))
	}
	cur := memCursor{segs: memSegs}
	for _, acc := range fileAccs {
		*scratch = cur.take((*scratch)[:0], acc.Len)
		if err := fn(acc, *scratch); err != nil {
			return err
		}
	}
	return nil
}

// multiple issues one contiguous PVFS operation per file region — or, with
// a cache attached, one cache operation per region: exactly the Unix-style
// call stream a client buffer cache is built to absorb.
func (f *File) multiple(p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen, write bool) error {
	sc := f.st.scratch()
	defer f.st.done(sc)
	return forEachPiece(&sc.piece, memSegs, fileAccs, func(acc pvfs.OffLen, segs []ib.SGE) error {
		if f.cache != nil {
			if write {
				return f.cache.WriteList(p, segs, []pvfs.OffLen{acc})
			}
			return f.cache.ReadList(p, segs, []pvfs.OffLen{acc})
		}
		opts := pvfs.OpOptions{Sieve: sieve.Never}
		if write {
			return f.fh.WriteList(p, segs, []pvfs.OffLen{acc}, opts)
		}
		return f.fh.ReadList(p, segs, []pvfs.OffLen{acc}, opts)
	})
}

// dsRead is ROMIO client-side data sieving: read the full extent in windows
// through ordinary contiguous PVFS reads, then extract the wanted pieces.
// ROMIO's ADIOI_GEN_ReadStrided allocates its read buffer for the call and
// frees it before returning, so the window's contents die with the call:
// dsBuf is a per-call mapping (mem.AddrSpace.PerCall). A window range an
// iod on this engine shard lends lands as a loan of the iod's file rather
// than as a copy, only the extracted pieces are copied, once, out of the
// file, and EndCall drops the loans. The virtual clock charges the whole
// window's transfer and every extraction's copy all the same.
func (f *File) dsRead(p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen) error {
	if len(fileAccs) == 0 {
		return nil
	}
	if ib.TotalLen(memSegs) != pvfs.TotalOffLen(fileAccs) {
		return fmt.Errorf("mpiio: memory bytes != file bytes")
	}
	lo, hi := extentOf(fileAccs)
	space, cfgIB := f.client.Space(), f.client.Cluster().Cfg.IB
	space.PerCall(f.dsBuf)
	defer space.EndCall(f.dsBuf)
	// Regions before first end at or below the current window; at is where
	// first's bytes start in memory. The next window resumes from there.
	first, at := 0, memCursor{segs: memSegs}
	for winLo := lo; winLo < hi; winLo += f.dsBufSize {
		winHi := min(winLo+f.dsBufSize, hi)
		if err := f.fh.Read(p, f.dsBuf, winHi-winLo, winLo, pvfs.OpOptions{Sieve: sieve.Never}); err != nil {
			return err
		}
		// Extract every piece that overlaps this window.
		cur := at
		for i := first; i < len(fileAccs); i++ {
			acc := fileAccs[i]
			if acc.End() <= winLo || acc.Off >= winHi {
				cur.skip(acc.Len)
			} else {
				pLo, pHi := max(acc.Off, winLo), min(acc.End(), winHi)
				p.Sleep(cfgIB.MemcpyTime(pHi - pLo))
				cur.skip(pLo - acc.Off)
				for src := pLo; src < pHi; {
					frag := cur.next(pHi - src)
					if err := space.Copy(frag.Addr, f.dsBuf+mem.Addr(src-winLo), frag.Len); err != nil {
						return err
					}
					src += frag.Len
				}
				cur.skip(acc.End() - pHi)
			}
			if i == first && acc.End() <= winHi {
				first, at = i+1, cur
			}
		}
	}
	return nil
}

func extentOf(accs []pvfs.OffLen) (lo, hi int64) {
	lo, hi = accs[0].Off, accs[0].End()
	for _, a := range accs[1:] {
		if a.Off < lo {
			lo = a.Off
		}
		if a.End() > hi {
			hi = a.End()
		}
	}
	return
}
