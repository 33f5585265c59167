// Package localfs models the I/O server's local file system (the testbed's
// ext3) on top of a simulated disk: sparse block-addressed files, a unified
// LRU page cache with read-ahead and write-back, fsync, and byte-range
// locks.
//
// Timing follows Table 3 of the paper: cache-hit reads stream at 1391 MB/s
// and buffered writes at 303 MB/s, while cache misses and syncs pay the
// disk model's seek/overhead/bandwidth costs (≈20-25 MB/s sequential).
// Every read and write call also pays a fixed per-call overhead — the
// "many small system calls are extremely expensive" effect that motivates
// data sieving.
//
// File bytes are really stored, so higher layers can verify data integrity
// end-to-end. They live in extents, slabs of 64 blocks with a bitmap of the
// blocks written, allocated on the first write into their range; Remove
// keeps a removed file's extents for the files created next. ReadPieces and
// WritePieces charge a whole span but move only the pieces of it that a
// caller names, the host side of a data-sieving window.
//
// A read does not copy: it lends. ReadPieces records the pieces on a Loan
// into storage the caller owns, and whoever reads the loan copies them
// straight out of the extents — an RDMA read lands file bytes in the
// client's segment in one copy. The file settles a loan (copies its pieces
// into the storage) before it changes a byte the loan spans, and ReadInto
// and ReadAt are a loan settled at once. Loans are pooled, so a read
// allocates nothing but the fresh slice ReadAt returns.
package localfs

import (
	"cmp"
	"math/bits"
	"slices"
	"time"

	"pvfsib/internal/disk"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// Params is the file-system timing model.
type Params struct {
	// BlockSize is the page-cache block size.
	BlockSize int64
	// CacheBytes bounds the page cache.
	CacheBytes int64
	// ReadAhead is the minimum media read issued on a cache miss.
	ReadAhead int64
	// CallOverhead is the per-read/write-call cost (syscall + VFS + ext3),
	// the model's O_r / O_w combined with the implicit lseek.
	CallOverhead sim.Duration
	// OpenOverhead is charged per Open.
	OpenOverhead sim.Duration
	// LockOverhead is charged per lock or unlock operation.
	LockOverhead sim.Duration
	// CachedReadBW is the copy-out bandwidth for cache hits (bytes/s).
	CachedReadBW float64
	// CachedWriteBW is the copy-in bandwidth for buffered writes.
	CachedWriteBW float64
	// FileRegion is the media span reserved per file, so different files
	// live in different disk regions and cross-file access seeks.
	FileRegion int64
}

// DefaultParams matches the paper's Table 3 measurements.
func DefaultParams() Params {
	return Params{
		BlockSize:     4096,
		CacheBytes:    512 * simnet.MB,
		ReadAhead:     256 << 10,
		CallOverhead:  15 * time.Microsecond,
		OpenOverhead:  30 * time.Microsecond,
		LockOverhead:  3 * time.Microsecond,
		CachedReadBW:  1391 * simnet.MB,
		CachedWriteBW: 303 * simnet.MB,
		FileRegion:    1 << 34, // 16 GiB apart on the media
	}
}

// Counters accumulates file-system call activity (the paper's "disk access
// characteristics" in Table 6 count these calls, not device operations).
type Counters struct {
	OpenCalls  int64
	ReadCalls  int64
	WriteCalls int64
	SyncCalls  int64
	LockOps    int64
	BytesRead  int64
	BytesWrote int64
}

// FS is one server's local file system.
type FS struct {
	eng    *sim.Engine
	dsk    *disk.Disk
	params Params

	files   map[string]*File
	nextID  int64
	cache   *pageCache
	freeExt []*extent // extents of removed files, extentKeepBytes at most
	loans   sim.FreeList[Loan]
	// syncList is SyncAll's list of files between calls (sortedFiles).
	syncList []*File

	// Counters accumulates call counts.
	Counters Counters
	// host counts what the file bytes cost the host (see HostCost).
	host sim.HostCost
}

// New creates a file system over the given disk.
func New(eng *sim.Engine, dsk *disk.Disk, params Params) *FS {
	fs := &FS{eng: eng, dsk: dsk, params: params, files: make(map[string]*File)}
	fs.cache = newPageCache(fs)
	return fs
}

// HostCost returns what the file bytes have cost the host so far: bytes
// copied into and out of extents, bytes zeroed (a fresh extent whole, a
// recycled one block by block as its stale blocks are first written), and
// how many extents were allocated against how many reused.
func (fs *FS) HostCost() sim.HostCost { return fs.host }

// Census reports the loans lent and not released.
func (fs *FS) Census(add func(pool string, out int64)) {
	add("localfs.loans", fs.loans.Out())
}

// Disk returns the underlying device.
func (fs *FS) Disk() *disk.Disk { return fs.dsk }

// Params returns the timing model.
func (fs *FS) Params() Params { return fs.params }

// File is one sparse file.
type File struct {
	fs   *FS
	name string
	id   int64
	size int64
	data map[int64]*extent // by block index / extentBlocks
	// loans heads the list of the file's unsettled loans.
	loans *Loan

	locks *lockTable
}

// Open returns the named file, creating it if needed.
func (fs *FS) Open(p *sim.Proc, name string) *File {
	fs.Counters.OpenCalls++
	p.Sleep(fs.params.OpenOverhead)
	if f, ok := fs.files[name]; ok {
		return f
	}
	f := &File{
		fs:    fs,
		name:  name,
		id:    fs.nextID,
		data:  make(map[int64]*extent),
		locks: newLockTable(fs.eng),
	}
	fs.nextID++
	fs.files[name] = f
	return f
}

// Remove deletes the named file like unlink(2): its bytes vanish — a *File
// kept across the call is empty — and its cached blocks (dirty or not) are
// discarded. It reports whether the file existed.
func (fs *FS) Remove(p *sim.Proc, name string) bool {
	p.Sleep(fs.params.OpenOverhead)
	f, ok := fs.files[name]
	if !ok {
		return false
	}
	delete(fs.files, name)
	for f.loans != nil {
		f.loans.Settle() // before the extents go to another file
	}
	fs.cache.purgeFile(f)
	// In index order, so that which extent a later file gets does not hang
	// on map iteration.
	extBytes := extentBlocks * fs.params.BlockSize
	for i := int64(0); i*extBytes < f.size && (int64(len(fs.freeExt))+1)*extBytes <= extentKeepBytes; i++ {
		if e := f.data[i]; e != nil {
			e.stale, e.written = e.stale|e.written, 0
			fs.freeExt = append(fs.freeExt, e)
		}
	}
	clear(f.data)
	f.size = 0
	return true
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the current file size.
func (f *File) Size() int64 { return f.size }

// mediaOffset maps a file offset to a media offset.
func (f *File) mediaOffset(off int64) int64 { return f.id*f.fs.params.FileRegion + off }

func (f *File) blockRange(off, size int64) (first, last int64) {
	bs := f.fs.params.BlockSize
	return off / bs, (off + size - 1) / bs
}

// ReadInto reads up to len(dst) bytes at offset off into dst and returns how
// many it read: fewer (or none) at end of file, like pread(2). Cache misses
// on written blocks go to the disk with read-ahead; holes read as zeros
// without media access. Bytes of dst past the count are left untouched. It
// is a loan into dst, settled at once.
func (f *File) ReadInto(p *sim.Proc, off int64, dst []byte) int {
	n := f.chargeRead(p, off, int64(len(dst)))
	l := f.Lend(dst)
	l.add(Piece{Off: off, Len: n}, n)
	l.Settle()
	l.Release()
	return int(n)
}

// Piece is one region of a span that ReadPieces or WritePieces moves: Len
// bytes at file offset Off, held at Pos in the caller's buffer.
type Piece struct {
	Off, Len, Pos int64
}

// ReadPieces is ReadInto of the size bytes at off for the clock — the call,
// cache misses with read-ahead, the copy-out bandwidth and the counters are
// the span's — that lends only the pieces on l, each to hold at Pos. The
// pieces lie inside the span; their bytes past end of file read as zeros.
// With no pieces it is the charge of reading the span and nothing else, and
// l may be nil.
func (f *File) ReadPieces(p *sim.Proc, off, size int64, pieces []Piece, l *Loan) {
	eof := off + f.chargeRead(p, off, size)
	for _, pc := range pieces {
		l.add(pc, min(max(eof-pc.Off, 0), pc.Len))
	}
}

// chargeRead charges a read of up to size bytes at off and returns how many
// the file holds there: the call, media reads for the written blocks the
// cache lacks (with read-ahead), and the copy-out bandwidth.
func (f *File) chargeRead(p *sim.Proc, off, size int64) int64 {
	fs := f.fs
	fs.Counters.ReadCalls++
	p.Sleep(fs.params.CallOverhead)
	size = min(size, f.size-off)
	if size <= 0 {
		return 0
	}
	bs := fs.params.BlockSize
	first, last := f.blockRange(off, size)

	// Find runs of blocks that must come from the media: written blocks
	// not present in the cache.
	for blk := first; blk <= last; {
		if fs.cache.hit(f, blk) || !f.written(blk) {
			blk++
			continue
		}
		// Start of a miss run; extend through contiguous written,
		// uncached blocks, then apply read-ahead.
		start := blk
		for blk <= last && !fs.cache.present(f, blk) && f.written(blk) {
			blk++
		}
		end := blk // exclusive
		ahead := start + (fs.params.ReadAhead+bs-1)/bs
		maxBlk := (f.size + bs - 1) / bs
		for end < ahead && end < maxBlk && f.written(end) && !fs.cache.present(f, end) {
			end++
		}
		fs.dsk.Read(p, f.mediaOffset(start*bs), (end-start)*bs)
		for b := start; b < end; b++ {
			fs.cache.insert(p, f, b, false)
		}
	}

	// Copy out at cached-read bandwidth.
	p.Sleep(sim.Duration(float64(size) / fs.params.CachedReadBW * 1e9))
	fs.Counters.BytesRead += size
	return size
}

// ReadAt is ReadInto into a fresh slice of the bytes available, nil at or
// past end of file.
func (f *File) ReadAt(p *sim.Proc, off, size int64) []byte {
	out := make([]byte, max(0, min(size, f.size-off)))
	if f.ReadInto(p, off, out) == 0 {
		return nil
	}
	return out
}

// WriteAt writes data at offset off, extending the file as needed. Writes
// land in the page cache (write-back); call Sync to force them to media.
func (f *File) WriteAt(p *sim.Proc, off int64, data []byte) {
	size := int64(len(data))
	if !f.chargeWrite(p, off, size) {
		return
	}
	f.copyIn(off, data)
	f.dirty(p, off, size)
}

// WritePieces is WriteAt of a size-byte span at off whose bytes outside the
// pieces are the file's own — the write half of a read-modify-write. It
// charges the span's call, copy-in bandwidth, edge-block reads, dirty blocks
// and growth past end of file, and gives every block of the span its
// storage, but copies in only the pieces, in the order given (of overlapping
// pieces the later wins), each from buf[Pos:Pos+Len]. The span's other
// bytes keep what the file holds: zeros in holes and past end of file.
func (f *File) WritePieces(p *sim.Proc, off, size int64, pieces []Piece, buf []byte) {
	if !f.chargeWrite(p, off, size) {
		return
	}
	for _, pc := range pieces {
		f.copyIn(pc.Off, buf[pc.Pos:pc.Pos+pc.Len])
	}
	// The rest of the span reads as it did, zeros where it was a hole.
	first, last := f.blockRange(off, size)
	for blk := first; blk <= last; blk++ {
		f.claim(blk)
	}
	f.dirty(p, off, size)
}

// chargeWrite charges a write of size bytes at off — the call, the copy-in
// bandwidth, and the media reads of partly covered edge blocks that are
// written but not cached (block-granular read-modify-write) — and reports
// whether there is anything to write.
func (f *File) chargeWrite(p *sim.Proc, off, size int64) bool {
	fs := f.fs
	fs.Counters.WriteCalls++
	p.Sleep(fs.params.CallOverhead)
	if size == 0 {
		return false
	}
	p.Sleep(sim.Duration(float64(size) / fs.params.CachedWriteBW * 1e9))
	fs.Counters.BytesWrote += size
	bs := fs.params.BlockSize
	first, last := f.blockRange(off, size)
	for _, blk := range [2]int64{first, last} {
		bStart, bEnd := blk*bs, (blk+1)*bs
		fullyCovered := off <= bStart && off+size >= bEnd
		if !fullyCovered && f.written(blk) && !fs.cache.present(f, blk) {
			fs.dsk.Read(p, f.mediaOffset(bStart), bs)
			fs.cache.insert(p, f, blk, false)
		}
	}
	return true
}

// dirty marks the written span's blocks dirty in the cache and extends the
// file to cover it.
func (f *File) dirty(p *sim.Proc, off, size int64) {
	first, last := f.blockRange(off, size)
	for blk := first; blk <= last; blk++ {
		f.fs.cache.insert(p, f, blk, true)
	}
	if off+size > f.size {
		f.size = off + size
	}
}

// Sync flushes the file's dirty blocks to media in offset order, coalescing
// adjacent blocks into single device writes, like fsync(2).
func (f *File) Sync(p *sim.Proc) {
	f.fs.Counters.SyncCalls++
	f.fs.cache.flushFile(p, f)
}

// SyncAll flushes every file, in creation order.
func (fs *FS) SyncAll(p *sim.Proc) {
	files := fs.sortedFiles()
	for _, f := range files {
		f.Sync(p)
	}
	clear(files)
	fs.syncList = files[:0]
}

// DropCaches flushes all dirty data and then empties the page cache, like
// writing to /proc/sys/vm/drop_caches. Benchmarks use it to measure
// uncached performance.
func (fs *FS) DropCaches(p *sim.Proc) {
	fs.SyncAll(p)
	fs.cache.clear()
}

// sortedFiles lists the files in creation order, in the FS's own list. The
// caller has the list until it hands it back in fs.syncList; a second
// caller while the first sleeps builds its own.
func (fs *FS) sortedFiles() []*File {
	out := fs.syncList
	fs.syncList = nil
	for _, f := range fs.files {
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b *File) int { return cmp.Compare(a.id, b.id) })
	return out
}

// CacheBytesUsed reports current page-cache occupancy.
func (fs *FS) CacheBytesUsed() int64 { return fs.cache.bytes }

// Lock acquires a byte-range lock on the file, blocking while any
// overlapping range is held. The paper's O_lock is charged.
func (f *File) Lock(p *sim.Proc, off, size int64) {
	f.fs.Counters.LockOps++
	p.Sleep(f.fs.params.LockOverhead)
	f.locks.lock(p, off, size)
}

// Unlock releases a byte-range lock (O_unlock charged).
func (f *File) Unlock(p *sim.Proc, off, size int64) {
	f.fs.Counters.LockOps++
	p.Sleep(f.fs.params.LockOverhead)
	f.locks.unlock(off, size)
}

// extent is the storage of extentBlocks consecutive blocks of one file.
type extent struct {
	data    []byte // extentBlocks * BlockSize
	written uint64 // bit b: block b has been written
	stale   uint64 // bit b: block b still holds bytes of a removed file
	// slot[b] is the page-cache entry caching block b, plus one; 0 if none.
	// A cached block is a written one, so its extent exists.
	slot [extentBlocks]int32
}

const (
	extentBlocks = 64 // one bit each in extent.written
	// extentKeepBytes bounds the storage of removed files one FS keeps.
	extentKeepBytes = 64 << 20
)

// has reports whether block b of the extent has been written; a nil extent
// has no blocks.
func (e *extent) has(b int64) bool { return e != nil && e.written>>b&1 != 0 }

// written reports whether the block has ever been written.
func (f *File) written(blk int64) bool {
	return f.data[blk/extentBlocks].has(blk % extentBlocks)
}

// extent returns the file's i-th extent, recycling a removed file's or
// making one if the file has none there.
func (f *File) extent(i int64) *extent {
	e := f.data[i]
	if e != nil {
		return e
	}
	fs := f.fs
	if n := len(fs.freeExt); n > 0 {
		e, fs.freeExt[n-1] = fs.freeExt[n-1], nil
		fs.freeExt = fs.freeExt[:n-1]
		fs.host.Recycled++
	} else {
		e = &extent{data: make([]byte, extentBlocks*fs.params.BlockSize)}
		fs.host.Fresh++
		fs.host.BytesCleared += extentBlocks * fs.params.BlockSize
	}
	f.data[i] = e
	return e
}

// claim marks the block written, zeroing it first if it holds a removed
// file's bytes.
func (f *File) claim(blk int64) {
	bs := f.fs.params.BlockSize
	e, b := f.extent(blk/extentBlocks), blk%extentBlocks
	if e.stale>>b&1 != 0 {
		clear(e.data[b*bs : (b+1)*bs])
		f.fs.host.BytesCleared += bs
		e.stale &^= 1 << b
	}
	e.written |= 1 << b
}

// copyIn writes data at off, one copy per extent it spans, after settling
// the loans of the bytes it changes. A block that still holds a removed
// file's bytes is cleared only where the write leaves it uncovered.
func (f *File) copyIn(off int64, data []byte) {
	f.settleLoans(off, off+int64(len(data)))
	fs := f.fs
	bs := fs.params.BlockSize
	extBytes := extentBlocks * bs
	fs.host.BytesCopied += int64(len(data))
	for len(data) > 0 {
		e := f.extent(off / extBytes)
		eo := off % extBytes
		n := min(extBytes-eo, int64(len(data)))
		first, last := eo/bs, (eo+n-1)/bs
		run := (uint64(1)<<(last-first+1) - 1) << first // 1<<64 is 0 in Go
		if stale := e.stale & run; stale != 0 {
			if stale>>first&1 != 0 {
				clear(e.data[first*bs : eo])
				fs.host.BytesCleared += eo - first*bs
			}
			if stale>>last&1 != 0 {
				clear(e.data[eo+n : (last+1)*bs])
				fs.host.BytesCleared += (last+1)*bs - eo - n
			}
			e.stale &^= run
		}
		e.written |= run
		copy(e.data[eo:eo+n], data)
		data = data[n:]
		off += n
	}
}

// copyOut fills dst with the file's bytes at off, one copy or clear per run
// of written blocks or of holes within an extent, and returns how many it
// copied rather than cleared.
func (f *File) copyOut(off int64, dst []byte) (copied int64) {
	bs := f.fs.params.BlockSize
	extBytes := extentBlocks * bs
	for len(dst) > 0 {
		e, eo := f.data[off/extBytes], off%extBytes
		b := eo / bs
		end, written := extBytes, false // the run of blocks like b's
		if e != nil {
			w := e.written >> b
			written = w&1 != 0
			if written {
				w = ^w
			}
			end = min(b+int64(bits.TrailingZeros64(w)), extentBlocks) * bs
		}
		n := min(end-eo, int64(len(dst)))
		if written {
			copy(dst[:n], e.data[eo:])
			copied += n
		} else {
			clear(dst[:n]) // hole: zeros
		}
		dst = dst[n:]
		off += n
	}
	return copied
}

// Loan is file bytes lent to storage its taker owns: the pieces of one or
// more reads, each to hold at its Pos. Until the loan is settled, a read of
// it copies them out of the file's extents; settling copies them into the
// storage, once. The file settles a loan before it changes a byte the loan
// spans, so a loan reads what the file held at the charge. Loans are pooled
// per file system and listed in their file's unsettled loans.
type Loan struct {
	fs     *FS
	file   *File // nil while the loan is in the pool
	dst    []byte
	pieces []lentPiece // ordered by Pos while sorted is set
	sorted bool
	// lo and hi bound the file bytes the loan names, before end of file.
	lo, hi  int64
	hint    int // the piece ReadAt ended in last
	settled bool
	// prev and next link the file's unsettled loans.
	prev, next *Loan
}

// lentPiece is a lent Piece with the bytes of it before end of file at the
// charge; the rest reads as zeros.
type lentPiece struct {
	Piece
	avail int64
}

// Lend starts a loan of the file's bytes into dst, which the taker keeps
// owning; ReadPieces adds to it. Release ends it.
func (f *File) Lend(dst []byte) *Loan {
	l := f.fs.loans.Take()
	l.fs, l.file, l.dst, l.sorted = f.fs, f, dst, true
	l.lo, l.hi = 0, 0
	l.next = f.loans
	if f.loans != nil {
		f.loans.prev = l
	}
	f.loans = l
	return l
}

// add lends a piece of which the first avail bytes are in the file.
func (l *Loan) add(pc Piece, avail int64) {
	if l.settled {
		sim.Failf("localfs: lend on a settled loan")
	}
	if n := len(l.pieces); n > 0 && pc.Pos < l.pieces[n-1].Pos {
		l.sorted = false
	}
	l.pieces = append(l.pieces, lentPiece{pc, avail})
	if avail > 0 {
		if l.lo == l.hi {
			l.lo, l.hi = pc.Off, pc.Off+avail
		} else {
			l.lo, l.hi = min(l.lo, pc.Off), max(l.hi, pc.Off+avail)
		}
	}
}

// ReadAt fills dst with the loan's bytes from offset off of its storage:
// the file's bytes where a piece is lent, the storage's own elsewhere.
func (l *Loan) ReadAt(dst []byte, off int64) {
	if l.file == nil {
		sim.Failf("localfs: read of a released loan")
	}
	if l.settled {
		copy(dst, l.dst[off:])
		return
	}
	if !l.sorted {
		slices.SortFunc(l.pieces, func(a, b lentPiece) int { return cmp.Compare(a.Pos, b.Pos) })
		l.sorted = true
	}
	i := l.find(off)
	for len(dst) > 0 {
		if i == len(l.pieces) || l.pieces[i].Pos > off {
			end := int64(len(l.dst))
			if i < len(l.pieces) {
				end = l.pieces[i].Pos
			}
			n := copy(dst[:min(end-off, int64(len(dst)))], l.dst[off:])
			dst, off = dst[n:], off+int64(n)
			continue
		}
		pc := l.pieces[i]
		at := off - pc.Pos
		n := min(pc.Len-at, int64(len(dst)))
		k := min(max(pc.avail-at, 0), n)
		l.file.copyOut(pc.Off+at, dst[:k])
		clear(dst[k:n])
		dst, off = dst[n:], off+n
		l.hint = i
		i++
	}
}

// find returns the index of the first piece that ends past off, trying the
// piece the last ReadAt ended in and the one after it first.
func (l *Loan) find(off int64) int {
	for i := l.hint; i < min(l.hint+2, len(l.pieces)); i++ {
		if pc := l.pieces[i]; pc.Pos <= off && off < pc.Pos+pc.Len {
			return i
		}
	}
	lo, hi := 0, len(l.pieces)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); l.pieces[mid].Pos+l.pieces[mid].Len > off {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Settle copies the loan's pieces into its storage, after which a read of
// the loan reads the storage. A settled loan stays settled.
func (l *Loan) Settle() {
	if l.file == nil {
		sim.Failf("localfs: settle of a released loan")
	}
	if l.settled {
		return
	}
	l.settled = true
	l.unlink()
	for _, pc := range l.pieces {
		d := l.dst[pc.Pos : pc.Pos+pc.Len]
		c := l.file.copyOut(pc.Off, d[:pc.avail])
		clear(d[pc.avail:])
		l.fs.host.BytesCopied += c
		l.fs.host.BytesCleared += pc.avail - c
	}
}

// Release ends the loan, settled or not, and returns it to the pool.
func (l *Loan) Release() {
	if l.file == nil {
		sim.Failf("localfs: loan released twice")
	}
	if !l.settled {
		l.unlink()
	}
	l.file, l.dst, l.settled, l.hint = nil, nil, false, 0
	l.pieces = l.pieces[:0]
	l.fs.loans.Put(l)
}

// unlink takes the loan out of its file's unsettled loans.
func (l *Loan) unlink() {
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		l.file.loans = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	}
	l.prev, l.next = nil, nil
}

// settleLoans settles every unsettled loan of the file that names a byte of
// [lo, hi).
func (f *File) settleLoans(lo, hi int64) {
	for l := f.loans; l != nil; {
		next := l.next
		if l.lo < hi && lo < l.hi {
			l.Settle()
		}
		l = next
	}
}

// pageCache is a global LRU over (file, block) with write-back. Entries live
// in one slab and link to their LRU neighbours by slab index, with freed
// slots chained through next, so caching a block costs no heap object of
// its own; a block finds its entry through its extent's slot.
type pageCache struct {
	fs         *FS
	ents       []cacheEntry
	head, tail int32 // most and least recently used; noEntry when empty
	free       int32 // head of the free-slot chain
	bytes      int64
	flushList  []int64 // flushFile's dirty-block list between flushes
}

type cacheKey struct {
	file *File
	blk  int64
}

type cacheEntry struct {
	key        cacheKey
	dirty      bool
	prev, next int32
}

const noEntry int32 = -1

func newPageCache(fs *FS) *pageCache {
	return &pageCache{fs: fs, head: noEntry, tail: noEntry, free: noEntry}
}

// lookup returns the block's extent.slot, nil if it has no extent, and the
// entry caching it, noEntry if none does.
func (k cacheKey) lookup() (*int32, int32) {
	if e := k.file.data[k.blk/extentBlocks]; e != nil {
		return &e.slot[k.blk%extentBlocks], e.slot[k.blk%extentBlocks] - 1
	}
	return nil, noEntry
}

func (c *pageCache) present(f *File, blk int64) bool {
	_, i := cacheKey{f, blk}.lookup()
	return i != noEntry
}

// hit reports whether the block is cached and, if so, promotes it.
func (c *pageCache) hit(f *File, blk int64) bool {
	_, i := cacheKey{f, blk}.lookup()
	if i != noEntry {
		c.promote(i)
	}
	return i != noEntry
}

// unlink takes entry i out of the LRU chain.
func (c *pageCache) unlink(i int32) {
	e := &c.ents[i]
	if e.prev == noEntry {
		c.head = e.next
	} else {
		c.ents[e.prev].next = e.next
	}
	if e.next == noEntry {
		c.tail = e.prev
	} else {
		c.ents[e.next].prev = e.prev
	}
}

// pushFront links entry i in as the most recently used.
func (c *pageCache) pushFront(i int32) {
	e := &c.ents[i]
	e.prev, e.next = noEntry, c.head
	if c.head == noEntry {
		c.tail = i
	} else {
		c.ents[c.head].prev = i
	}
	c.head = i
}

func (c *pageCache) promote(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// drop removes entry i from the cache without writing it back.
func (c *pageCache) drop(i int32) {
	c.unlink(i)
	slot, _ := c.ents[i].key.lookup()
	*slot = 0
	c.ents[i] = cacheEntry{next: c.free}
	c.free = i
	c.bytes -= c.fs.params.BlockSize
}

// insert adds a block or promotes it if already cached, evicting LRU
// entries as needed; dirty marks it modified either way.
func (c *pageCache) insert(p *sim.Proc, f *File, blk int64, dirty bool) {
	key := cacheKey{f, blk}
	if _, i := key.lookup(); i != noEntry {
		c.promote(i)
		if dirty {
			c.ents[i].dirty = true
		}
		return
	}
	bs := c.fs.params.BlockSize
	for c.bytes+bs > c.fs.params.CacheBytes && c.tail != noEntry {
		c.evictOne(p)
	}
	i := c.free
	if i == noEntry {
		i = int32(len(c.ents))
		c.ents = append(c.ents, cacheEntry{})
	} else {
		c.free = c.ents[i].next
	}
	c.ents[i] = cacheEntry{key: key, dirty: dirty}
	slot, _ := key.lookup() // after the evictions, which may sleep
	*slot = i + 1
	c.pushFront(i)
	c.bytes += bs
}

func (c *pageCache) evictOne(p *sim.Proc) {
	ent := c.ents[c.tail]
	if ent.dirty {
		bs := c.fs.params.BlockSize
		c.fs.dsk.Write(p, ent.key.file.mediaOffset(ent.key.blk*bs), bs)
	}
	c.drop(c.tail)
}

// flushFile writes the file's dirty blocks in offset order, coalescing
// adjacent blocks into single media writes. It collects them in the cache's
// flush list, which it takes for the call and hands back afterwards: the
// disk sleeps between writes, and another flush may start meanwhile.
func (c *pageCache) flushFile(p *sim.Proc, f *File) {
	dirty := c.flushList[:0]
	c.flushList = nil
	for i := c.head; i != noEntry; i = c.ents[i].next {
		if e := c.ents[i]; e.key.file == f && e.dirty {
			dirty = append(dirty, e.key.blk)
		}
	}
	slices.Sort(dirty)
	bs := c.fs.params.BlockSize
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && dirty[j] == dirty[j-1]+1 {
			j++
		}
		c.fs.dsk.Write(p, f.mediaOffset(dirty[i]*bs), int64(j-i)*bs)
		i = j
	}
	for _, blk := range dirty {
		if _, i := (cacheKey{f, blk}).lookup(); i != noEntry {
			c.ents[i].dirty = false
		}
	}
	c.flushList = dirty[:0]
}

// purgeFile drops every cached block of f without writing dirty data back.
func (c *pageCache) purgeFile(f *File) {
	for i := c.head; i != noEntry; {
		next := c.ents[i].next
		if c.ents[i].key.file == f {
			c.drop(i)
		}
		i = next
	}
}

func (c *pageCache) clear() {
	for i := c.head; i != noEntry; i = c.ents[i].next {
		slot, _ := c.ents[i].key.lookup()
		*slot = 0
	}
	c.ents = c.ents[:0]
	c.head, c.tail, c.free = noEntry, noEntry, noEntry
	c.bytes = 0
}

// lockTable is a simple byte-range lock manager.
type lockTable struct {
	eng  *sim.Engine
	held []lockRange
	cond *sim.Cond
}

type lockRange struct{ off, size int64 }

func newLockTable(eng *sim.Engine) *lockTable {
	return &lockTable{eng: eng, cond: eng.NewCond()}
}

func (lt *lockTable) lock(p *sim.Proc, off, size int64) {
	for lt.conflicts(off, size) {
		lt.cond.Wait(p)
	}
	lt.held = append(lt.held, lockRange{off, size})
}

func (lt *lockTable) unlock(off, size int64) {
	for i, r := range lt.held {
		if r.off == off && r.size == size {
			lt.held = append(lt.held[:i], lt.held[i+1:]...)
			lt.cond.Broadcast()
			return
		}
	}
	sim.Failf("localfs: unlock of range not held")
}

func (lt *lockTable) conflicts(off, size int64) bool {
	for _, r := range lt.held {
		if off < r.off+r.size && r.off < off+size {
			return true
		}
	}
	return false
}
