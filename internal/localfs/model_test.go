package localfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"pvfsib/internal/disk"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
)

// blockFile is a file's storage as it was before extents: one BlockSize
// slice per written block in a map, presence meaning "ever written". Its
// four methods are the former File's, verbatim; writeAt and readInto add
// the size bookkeeping of WriteAt and ReadInto, and span gives ReadPieces and
// WritePieces their meaning as the sieve had it before pieces. It is the
// oracle the extent storage is held to, op by op.
type blockFile struct {
	bs   int64
	size int64
	data map[int64][]byte
}

func newBlockFile(bs int64) *blockFile { return &blockFile{bs: bs, data: make(map[int64][]byte)} }

func (f *blockFile) written(blk int64) bool {
	_, ok := f.data[blk]
	return ok
}

func (f *blockFile) block(blk int64) []byte {
	b, ok := f.data[blk]
	if !ok {
		b = make([]byte, f.bs)
		f.data[blk] = b
	}
	return b
}

func (f *blockFile) copyIn(off int64, data []byte) {
	bs := f.bs
	for len(data) > 0 {
		blk := off / bs
		bo := off % bs
		n := copy(f.block(blk)[bo:], data)
		data = data[n:]
		off += int64(n)
	}
}

func (f *blockFile) copyOut(off int64, dst []byte) {
	bs := f.bs
	for len(dst) > 0 {
		blk := off / bs
		bo := off % bs
		var n int
		if b, ok := f.data[blk]; ok {
			n = copy(dst, b[bo:])
		} else {
			// Hole: zeros.
			n = min(int(bs-bo), len(dst))
			clear(dst[:n])
		}
		dst = dst[n:]
		off += int64(n)
	}
}

// extents counts the extents the file's written blocks lie in: the ones
// the FS gave it storage for.
func (f *blockFile) extents() int64 {
	seen := map[int64]bool{}
	for blk := range f.data {
		seen[blk/extentBlocks] = true
	}
	return int64(len(seen))
}

func (f *blockFile) writeAt(off int64, data []byte) {
	if len(data) == 0 {
		return
	}
	f.copyIn(off, data)
	f.size = max(f.size, off+int64(len(data)))
}

func (f *blockFile) readInto(off int64, dst []byte) int {
	size := min(int64(len(dst)), f.size-off)
	if size <= 0 {
		return 0
	}
	f.copyOut(off, dst[:size])
	return int(size)
}

// span returns the size bytes at off as a read-modify-write window sees them
// — read, zero-filled past end of file — with the pieces copied in from buf
// in the order given: what WritePieces writes, and with no pieces what
// ReadPieces reads its pieces out of.
func (f *blockFile) span(off, size int64, pieces []Piece, buf []byte) []byte {
	out := make([]byte, size)
	f.readInto(off, out)
	for _, pc := range pieces {
		copy(out[pc.Off-off:pc.Off+pc.Len-off], buf[pc.Pos:])
	}
	return out
}

// handle is one *File with its oracle. Remove ends it: the record goes back
// to the FS, and the next Open of a new file may hand it out again.
type handle struct {
	f       *File
	m       *blockFile
	name    string
	removed bool
}

// fsPair drives an FS and the oracles with the same calls. With spans set
// it services ReadPieces and WritePieces the way the sieve did before
// pieces — ReadInto and WriteAt of the whole span through a buffer — so that
// a script run both ways can be held to charging the same.
type fsPair struct {
	t       testing.TB
	p       *sim.Proc
	fs      *FS
	open    map[string]*handle
	handles []*handle // the open files' handles
	stamp   byte
	spans   bool
	ref     *mapCache // the page cache the FS's is held to (checkCache)
	lent    []*lent   // loans held open
	// gone counts the extents of the files the FS removed; retired holds
	// the file systems the script retired before it (rebuild).
	gone    int64
	retired []*FS
	ee      [2][]byte // bufs's storage
}

func newFSPair(t testing.TB, p *sim.Proc, fs *FS) *fsPair {
	ref := &mapCache{index: map[cacheKey]int32{}, head: noEntry, tail: noEntry, free: noEntry, params: fs.params}
	return &fsPair{t: t, p: p, fs: fs, open: map[string]*handle{}, ref: ref}
}

func (x *fsPair) openFile(name string) *handle {
	x.t.Helper()
	f := x.fs.Open(x.p, name)
	h := x.open[name]
	if h == nil {
		h = &handle{f: f, m: newBlockFile(x.fs.params.BlockSize), name: name}
		x.open[name] = h
		x.handles = append(x.handles, h)
	}
	if h.f != f {
		x.t.Fatalf("Open(%q) returned a different file than the one open", name)
	}
	return h
}

func (x *fsPair) remove(name string) {
	x.t.Helper()
	h := x.open[name]
	if f := x.fs.files[name]; f != nil {
		x.ref.purgeFile(f)
	}
	if got := x.fs.Remove(x.p, name); got != (h != nil) {
		x.t.Fatalf("Remove(%q) = %t with the file open: %t", name, got, h != nil)
	}
	if h != nil {
		x.gone += h.m.extents()
		delete(x.open, name)
		h.removed = true
		x.handles = slices.DeleteFunc(x.handles, func(o *handle) bool { return o == h })
	}
	if keep := extentKeepBytes / (extentBlocks * x.fs.params.BlockSize); int64(len(x.fs.freeExt)) > keep {
		x.t.Fatalf("%d extents kept, bound %d", len(x.fs.freeExt), keep)
	}
}

func (x *fsPair) write(h *handle, off, n int64) {
	data := x.fill(n)
	x.ref.write(h, off, n)
	h.f.WriteAt(x.p, off, data)
	h.m.writeAt(off, data)
}

func (x *fsPair) read(h *handle, off, n int64) {
	x.t.Helper()
	got, want := x.bufs(n)
	x.ref.read(h, off, n)
	if a, b := h.f.ReadInto(x.p, off, got), h.m.readInto(off, want); a != b {
		x.t.Fatalf("%s: ReadInto(%d, %d) = %d, oracle %d", h.name, off, n, a, b)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		x.t.Fatalf("%s: ReadInto(%d, %d): byte %d is %#x, oracle %#x", h.name, off, n, i, got[i], want[i])
	}
}

// bufs returns two n-byte buffers of 0xEE bytes, the same storage on every
// call, for a read and the oracle's read to land in.
func (x *fsPair) bufs(n int64) (got, want []byte) {
	if int64(len(x.ee[0])) < n {
		x.ee = [2][]byte{make([]byte, n), make([]byte, n)}
	}
	got, want = x.ee[0][:n], x.ee[1][:n]
	if n > 0 {
		got[0] = 0xEE
		for k := 1; k < len(got); k *= 2 {
			copy(got[k:], got[:k])
		}
		copy(want, got)
	}
	return got, want
}

// fill returns n never-zero bytes of the next stamp.
func (x *fsPair) fill(n int64) []byte {
	x.stamp += 29
	data := make([]byte, n)
	for i := range data {
		data[i] = x.stamp + byte(i*5) | 1
	}
	return data
}

// writePieces writes the pieces of the size-byte span at off.
func (x *fsPair) writePieces(h *handle, off, size int64, pieces []Piece) {
	buf := x.fill(piecesLen(pieces))
	want := h.m.span(off, size, pieces, buf)
	x.ref.write(h, off, size)
	if x.spans {
		h.f.WriteAt(x.p, off, want)
	} else {
		h.f.WritePieces(x.p, off, size, pieces, buf)
	}
	h.m.writeAt(off, want)
}

// readPieces reads the pieces of the size-byte span at off into a buffer of
// 0xEE bytes, which must all be overwritten: through a loan, read before it
// is settled and then settled.
func (x *fsPair) readPieces(h *handle, off, size int64, pieces []Piece) {
	x.t.Helper()
	n := piecesLen(pieces)
	got, want := x.bufs(n)
	x.ref.read(h, off, size)
	if x.spans {
		span := make([]byte, size)
		clear(span[h.f.ReadInto(x.p, off, span):])
		for _, pc := range pieces {
			copy(got[pc.Pos:pc.Pos+pc.Len], span[pc.Off-off:])
		}
	} else {
		l := h.f.Lend(got)
		h.f.ReadPieces(x.p, off, size, pieces, l)
		lent := make([]byte, n)
		l.ReadAt(lent, 0)
		l.Settle()
		l.Release()
		if i := firstDiff(lent, got); i >= 0 {
			x.t.Fatalf("%s: ReadPieces(%d, %d, %v): byte %d reads %#x lent, %#x settled", h.name, off, size, pieces, i, lent[i], got[i])
		}
	}
	span := h.m.span(off, size, nil, nil)
	for _, pc := range pieces {
		copy(want[pc.Pos:pc.Pos+pc.Len], span[pc.Off-off:])
	}
	if i := firstDiff(got, want); i >= 0 {
		x.t.Fatalf("%s: ReadPieces(%d, %d, %v): byte %d is %#x, oracle %#x", h.name, off, size, pieces, i, got[i], want[i])
	}
}

// lent is a loan a script holds open, with what it must read: the oracle's
// bytes of its pieces at the lend, and the storage's own 0xEE elsewhere.
// Servicing pieces as spans, there is no loan: the span is read into the
// storage at once.
type lent struct {
	h       *handle
	loan    *Loan
	pieces  []Piece
	storage []byte
	want    []byte
}

// lend lends the pieces of the size-byte span at off into storage tail
// bytes longer than they are, and keeps the loan.
func (x *fsPair) lend(h *handle, off, size int64, pieces []Piece, tail int64) {
	n := piecesLen(pieces) + tail
	ln := &lent{h: h, pieces: pieces, storage: bytes.Repeat([]byte{0xEE}, int(n)), want: bytes.Repeat([]byte{0xEE}, int(n))}
	x.ref.read(h, off, size)
	span := h.m.span(off, size, nil, nil)
	for _, pc := range pieces {
		copy(ln.want[pc.Pos:pc.Pos+pc.Len], span[pc.Off-off:])
	}
	if x.spans {
		span := make([]byte, size)
		clear(span[h.f.ReadInto(x.p, off, span):])
		for _, pc := range pieces {
			copy(ln.storage[pc.Pos:pc.Pos+pc.Len], span[pc.Off-off:])
		}
	} else {
		ln.loan = h.f.Lend(ln.storage)
		h.f.ReadPieces(x.p, off, size, pieces, ln.loan)
	}
	x.lent = append(x.lent, ln)
}

// fork forks the n bytes at off of a loan held open into storage of their
// own, and holds the fork open too: it must read what the loan reads there,
// until a write or a Remove settles it. A loan forks only what it lends and
// only until it settles; otherwise the bytes are read out of it, as a
// landing copies them. Servicing pieces as spans, they are copied.
func (x *fsPair) fork(ln *lent, off, n int64) {
	x.t.Helper()
	// The fork's pieces are the loan's, cut to the range and placed in it.
	var pieces []Piece
	for _, pc := range ln.pieces {
		if lo, hi := max(pc.Pos, off), min(pc.Pos+pc.Len, off+n); lo < hi {
			pieces = append(pieces, Piece{Off: pc.Off + lo - pc.Pos, Len: hi - lo, Pos: lo - off})
		}
	}
	fk := &lent{h: ln.h, pieces: pieces, storage: bytes.Repeat([]byte{0xEE}, int(n)), want: ln.want[off : off+n]}
	x.lent = append(x.lent, fk)
	if ln.loan == nil {
		copy(fk.storage, ln.storage[off:])
		return
	}
	covered := true
	for at := int64(0); covered && at < n; {
		covered = false
		for _, pc := range pieces {
			if pc.Pos <= at && at < pc.Pos+pc.Len {
				at, covered = pc.Pos+pc.Len, true
			}
		}
	}
	f := ln.loan.Fork(fk.storage, off)
	if want := covered && !ln.loan.settled; (f != nil) != want {
		x.t.Fatalf("%s: fork of %d+%d of a loan of %v (settled %t): forked %t, want %t", ln.h.name, off, n, ln.pieces, ln.loan.settled, f != nil, want)
	}
	if f == nil {
		ln.loan.ReadAt(fk.storage, off)
		return
	}
	fk.loan = f.(*Loan)
}

// readLent reads n bytes at off of a loan held open.
func (x *fsPair) readLent(ln *lent, off, n int64) {
	x.t.Helper()
	got := make([]byte, n)
	if ln.loan != nil {
		ln.loan.ReadAt(got, off)
	} else {
		copy(got, ln.storage[off:])
	}
	if i := firstDiff(got, ln.want[off:off+n]); i >= 0 {
		x.t.Fatalf("%s: loan of %v read at %d+%d: byte %d is %#x, lent %#x", ln.h.name, ln.pieces, off, n, i, got[i], ln.want[off+int64(i)])
	}
}

// release ends the i-th loan held open, settling it first if settle is set
// and checking the storage then holds what the loan read.
func (x *fsPair) release(i int, settle bool) {
	x.t.Helper()
	ln := x.lent[i]
	x.lent = slices.Delete(x.lent, i, i+1)
	if ln.loan == nil {
		return
	}
	if settle {
		ln.loan.Settle()
		if j := firstDiff(ln.storage, ln.want); j >= 0 {
			x.t.Fatalf("%s: loan of %v settled: byte %d is %#x, lent %#x", ln.h.name, ln.pieces, j, ln.storage[j], ln.want[j])
		}
	}
	ln.loan.Release()
}

func piecesLen(pieces []Piece) (n int64) {
	for _, pc := range pieces {
		n += pc.Len
	}
	return n
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// sweep compares size, the written state of every block (it decides which
// reads go to the disk) and every byte of every handle.
func (x *fsPair) sweep() {
	x.t.Helper()
	bs := x.fs.params.BlockSize
	for _, h := range x.handles {
		if h.f.Size() != h.m.size {
			x.t.Fatalf("%s: size %d, oracle %d", h.name, h.f.Size(), h.m.size)
		}
		for blk := int64(0); blk*bs < h.m.size+extentBlocks*bs; blk++ {
			if a, b := h.f.written(blk), h.m.written(blk); a != b {
				x.t.Fatalf("%s: block %d written %t, oracle %t", h.name, blk, a, b)
			}
		}
		for off := int64(0); off < h.m.size; off += 1 << 20 {
			x.read(h, off, 1<<20)
		}
	}
	x.checkExtents()
}

// checkExtents holds the FS's storage counts to the oracle: every extent its
// files have, or that files it removed had, came from make, the store or
// its own removed files, once — and only a removed file's counts as
// recycled, so a borrow from the store counts as the make it replaces.
func (x *fsPair) checkExtents() {
	x.t.Helper()
	live := int64(0)
	for _, h := range x.handles {
		live += h.m.extents()
	}
	if hc := x.fs.HostCost(); hc.Fresh+hc.Recycled != x.gone+live || hc.Recycled > x.gone {
		x.t.Fatalf("%d fresh + %d recycled extents; oracle %d in files and %d in removed ones", hc.Fresh, hc.Recycled, live, x.gone)
	}
}

// rebuild retires the file system — its extents poisoned on the way into
// the store or not — once every loan held open is released unsettled, as a
// cluster's memories retire before its file systems, and goes on with a new
// one over the same disk. The new one opens the old one's files and writes
// one byte into the first block the old one had written in each extent, so
// that the extent comes from the store: every other byte of the blocks the
// old one had written there must read as zero.
func (x *fsPair) rebuild(poisoned bool) {
	x.t.Helper()
	for len(x.lent) > 0 {
		x.release(len(x.lent)-1, false)
	}
	defer func(was bool) { sim.PoisonReleased = was }(sim.PoisonReleased)
	sim.PoisonReleased = poisoned
	old := x.fs
	old.Retire()
	x.retired = append(x.retired, old)
	x.fs, x.gone = New(old.eng, old.dsk, old.params), 0
	wroteBack := x.ref.wroteBack
	x.ref = newFSPair(x.t, x.p, x.fs).ref
	x.ref.wroteBack = wroteBack
	handles := x.handles
	x.open, x.handles = map[string]*handle{}, nil
	bs := x.fs.params.BlockSize
	for _, h := range handles {
		nh := x.openFile(h.name)
		blks := make([]int64, 0, len(h.m.data))
		for blk := range h.m.data {
			blks = append(blks, blk)
		}
		slices.Sort(blks)
		for i := 0; i < len(blks); {
			first, last := blks[i], blks[i]
			for ; i < len(blks) && blks[i]/extentBlocks == first/extentBlocks; i++ {
				last = blks[i]
			}
			x.write(nh, first*bs+first%bs, 1)
			x.read(nh, first*bs, (last-first+1)*bs)
		}
	}
	x.checkExtents()
}

// script turns a byte string into calls; it reads as zeros past its end.
type script struct{ b []byte }

func (sc *script) byte() int64 {
	if len(sc.b) == 0 {
		return 0
	}
	v := sc.b[0]
	sc.b = sc.b[1:]
	return int64(v)
}

func (sc *script) word() int64 { return sc.byte()<<8 | sc.byte() }

// span draws an offset within the first three extents or so — rarely far
// out, leaving a sparse file — and a length of up to 80 kB, short half the
// time.
func (sc *script) span() (off, n int64) {
	off = sc.word() * 13
	if sc.byte()%16 == 0 {
		off += 20 << 20
	}
	n = 1 + sc.word()%(80<<10)
	if sc.byte()%2 == 0 {
		n = 1 + n%300
	}
	return off, n
}

// pieces draws up to four pieces inside the span, laid back to back in the
// buffer in the order drawn; a piece may repeat an earlier one or overlap it.
func (sc *script) pieces(off, n int64) []Piece {
	var out []Piece
	var pos int64
	for k := sc.byte() % 5; k > 0; k-- {
		pc := Piece{Off: off + sc.word()%n}
		pc.Len = 1 + sc.word()%(off+n-pc.Off)
		if len(out) > 0 && sc.byte()%4 == 0 {
			pc = out[sc.byte()%int64(len(out))]
		}
		pc.Pos = pos
		pos += pc.Len
		out = append(out, pc)
	}
	return out
}

// scriptRun is what a script leaves behind that both ways of servicing
// pieces must agree on: the virtual clock and every call, disk and storage
// count but the bytes copied and cleared.
type scriptRun struct {
	now             sim.Time
	counters        Counters
	disk            disk.Counters
	fresh, recycled int64
	cacheBytes      int64
	wroteBack       int // dirty blocks evicted
}

// runFileScript interprets data against a fresh file system, servicing
// pieces as spans when spans is set. The page cache holds scriptCacheBlocks,
// so that scripts evict and write back, and is held to the reference after
// every op. At the end the file system retires, its extents poisoned in the
// store for every other length of data, and a new one borrows them.
func runFileScript(t testing.TB, data []byte, spans bool) scriptRun {
	t.Helper()
	eng, fs := newFS(t)
	fs.params.CacheBytes = scriptCacheBlocks * fs.params.BlockSize
	var out scriptRun
	runSim(t, eng, func(p *sim.Proc) {
		x := newFSPair(t, p, fs)
		x.spans = spans
		sc := &script{b: data}
		names := []string{"a", "b", "c"}
		for ops := 0; len(sc.b) > 0 && ops < 400; ops++ {
			op := sc.byte() % 25
			if op < 2 || len(x.handles) == 0 {
				x.openFile(names[sc.byte()%3])
				continue
			}
			h := x.handles[sc.byte()%int64(len(x.handles))]
			switch {
			case op < 9:
				off, n := sc.span()
				x.write(h, off, n)
			case op < 13:
				off, n := sc.span()
				x.read(h, off, n)
			case op == 13:
				h.f.Sync(p)
				x.ref.flushFile(h.f)
			case op == 14:
				x.fs.DropCaches(p)
				x.ref.clear()
			case op == 15:
				x.remove(names[sc.byte()%3])
			case op < 18:
				off, n := sc.span()
				x.writePieces(h, off, n, sc.pieces(off, n))
			case op < 20:
				off, n := sc.span()
				x.readPieces(h, off, n, sc.pieces(off, n))
			case op == 20:
				off, n := sc.span()
				x.lend(h, off, n, sc.pieces(off, n), sc.byte()%3*20)
			case len(x.lent) == 0:
			case op == 21:
				ln := x.lent[sc.byte()%int64(len(x.lent))]
				if size := int64(len(ln.want)); size > 0 {
					off := sc.word() % size
					x.readLent(ln, off, 1+sc.word()%(size-off))
				}
			case op == 22:
				x.release(int(sc.byte()%int64(len(x.lent))), sc.byte()%2 == 0)
			case op == 24:
				ln := x.lent[sc.byte()%int64(len(x.lent))]
				if size := int64(len(ln.want)); size > 0 {
					off := sc.word() % size
					x.fork(ln, off, 1+sc.word()%(size-off))
				}
			default: // a write over a lent piece, of its file or of the one that took its extents
				ln := x.lent[sc.byte()%int64(len(x.lent))]
				if sc.byte()%2 == 0 && !ln.h.removed {
					h = ln.h
				}
				if len(ln.pieces) > 0 {
					pc := ln.pieces[sc.byte()%int64(len(ln.pieces))]
					x.write(h, pc.Off+sc.word()%pc.Len, 1+sc.word()%(8<<10))
				}
			}
			x.checkCache()
		}
		for _, ln := range x.lent {
			x.readLent(ln, 0, int64(len(ln.want)))
		}
		for len(x.lent) > 0 {
			x.release(len(x.lent)-1, len(x.lent)%2 == 0)
		}
		if out := x.fs.loans.Out() + x.fs.forks.Out(); out != 0 {
			t.Fatalf("%d loans not released", out)
		}
		x.sweep()
		x.checkCache()
		x.rebuild(len(data)%2 == 0)
		out = scriptRun{now: p.Now(), disk: fs.dsk.Counters, cacheBytes: x.fs.CacheBytesUsed(), wroteBack: x.ref.wroteBack}
		for _, fs := range append(x.retired, x.fs) {
			hc := fs.HostCost()
			out.counters.add(fs.Counters)
			out.fresh += hc.Fresh
			out.recycled += hc.Recycled
		}
	})
	return out
}

// add adds o's counts to c.
func (c *Counters) add(o Counters) {
	c.OpenCalls += o.OpenCalls
	c.ReadCalls += o.ReadCalls
	c.WriteCalls += o.WriteCalls
	c.SyncCalls += o.SyncCalls
	c.LockOps += o.LockOps
	c.BytesRead += o.BytesRead
	c.BytesWrote += o.BytesWrote
}

// checkFileScript runs a script servicing pieces both ways, each against
// the oracle, and holds the two runs to the same charges.
func checkFileScript(t testing.TB, data []byte) scriptRun {
	t.Helper()
	pieces, spans := runFileScript(t, data, false), runFileScript(t, data, true)
	if pieces != spans {
		t.Fatalf("pieces charge differently from their spans:\n%+v\n%+v", pieces, spans)
	}
	return pieces
}

func TestFileExtentsModelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20030903))
	wroteBack, borrows := 0, mem.Store().Borrows
	for iter := 0; iter < 40; iter++ {
		data := make([]byte, 100+rng.Intn(2500))
		rng.Read(data)
		wroteBack += checkFileScript(t, data).wroteBack
	}
	if wroteBack == 0 {
		t.Error("no script evicted a dirty block: the cache is too large to test write-back")
	}
	if mem.Store().Borrows == borrows {
		t.Error("no rebuilt file system borrowed an extent from the store")
	}
}

func FuzzFileExtents(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 12, 200, 2000} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFileScript(t, data) })
}

// TestRecycledExtentReadsZero: a file that gets a removed file's extents
// reads zeros in the blocks it never wrote and around what it wrote into a
// block, before and after the page cache is dropped.
func TestRecycledExtentReadsZero(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		x := newFSPair(t, p, fs)
		bs := fs.params.BlockSize
		old := x.openFile("old")
		x.write(old, 0, 3*extentBlocks*bs) // three extents, every byte nonzero
		x.remove("old")
		if len(fs.freeExt) != 3 {
			t.Fatalf("%d extents kept of 3", len(fs.freeExt))
		}
		h := x.openFile("new")
		x.write(h, 5000, 100)                // inside block 1: the block's head and tail stay zero
		x.write(h, 2*bs-10, 20)              // last bytes of block 1, first of block 2
		x.write(h, extentBlocks*bs+7*bs, bs) // one whole block of the second extent
		x.write(h, 3*extentBlocks*bs-1, 1)   // the file's last byte, in the third
		if len(fs.freeExt) != 0 {
			t.Fatalf("%d extents still free: the new file did not recycle", len(fs.freeExt))
		}
		x.sweep()
		fs.DropCaches(p)
		x.sweep()
		// A recycled extent is recycled again with its stale blocks intact.
		x.remove("new")
		x.write(x.openFile("third"), extentBlocks*bs-1, 2)
		x.sweep()
	})
}

// TestRemovedFileRecordIsReused: Remove hands the file's record back to the
// FS and the next Open of a new file takes it, with a media region of its
// own and nothing of the removed file's bytes; Gen tells a holder of the
// record that the file it looked up is gone.
func TestRemovedFileRecordIsReused(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		x := newFSPair(t, p, fs)
		old := x.openFile("f")
		x.write(old, 0, 100<<10)
		rec, gen, region := old.f, old.f.Gen(), old.f.mediaOffset(0)
		x.remove("f")
		if rec.Gen() == gen {
			t.Error("Remove left the record's generation as it was")
		}
		fresh := x.openFile("g") // a new name, the removed file's record and extents
		if fresh.f != rec {
			t.Fatal("Open after Remove made a record instead of reusing the removed one")
		}
		if fresh.f.Size() != 0 || fresh.f.mediaOffset(0) == region {
			t.Errorf("reused record: size %d, media region %d (the removed file's: %d)", fresh.f.Size(), fresh.f.mediaOffset(0), region)
		}
		x.read(fresh, 0, 100<<10) // zeros, not the removed file's bytes
		x.write(fresh, 10, 5000)
		x.read(fresh, 0, 8000)
		x.sweep()
	})
}

// TestExtentRecycleBounded: an FS keeps extentKeepBytes of removed files'
// storage and leaves the rest to the collector.
func TestExtentRecycleBounded(t *testing.T) {
	eng, fs := newFS(t)
	runSim(t, eng, func(p *sim.Proc) {
		extBytes := extentBlocks * fs.params.BlockSize
		keep := int(extentKeepBytes / extBytes)
		f := fs.Open(p, "sparse")
		for i := 0; i < keep+40; i++ {
			f.WriteAt(p, int64(i)*extBytes, []byte{1}) // one byte in each extent
		}
		fs.Remove(p, "sparse")
		if len(fs.freeExt) != keep {
			t.Errorf("%d extents kept of %d, bound %d", len(fs.freeExt), keep+40, keep)
		}
	})
}

// scriptCacheBlocks is the page cache of runFileScript: fewer blocks than
// one read-ahead and an 80 kB write, so that scripts evict and write back.
const scriptCacheBlocks = 80

// mapCache is the page cache as it was before the extents held its index:
// an LRU slab found through a map[cacheKey]int32. Its methods from unlink to
// clear are the former pageCache's, verbatim but for the disk writes, which
// it counts instead; read and write make the calls chargeRead, chargeWrite
// and dirty make, from the block oracle's state before the call.
type mapCache struct {
	index      map[cacheKey]int32
	ents       []cacheEntry
	head, tail int32
	free       int32
	bytes      int64
	params     Params
	wroteBack  int
}

func (c *mapCache) read(h *handle, off, n int64) {
	m, bs := h.m, c.params.BlockSize
	size := min(n, m.size-off)
	if size <= 0 {
		return
	}
	first, last := off/bs, (off+size-1)/bs
	for blk := first; blk <= last; {
		if c.hit(h.f, blk) || !m.written(blk) {
			blk++
			continue
		}
		start := blk
		for blk <= last && !c.present(h.f, blk) && m.written(blk) {
			blk++
		}
		end := blk
		ahead := start + (c.params.ReadAhead+bs-1)/bs
		for end < ahead && end < (m.size+bs-1)/bs && m.written(end) && !c.present(h.f, end) {
			end++
		}
		for b := start; b < end; b++ {
			c.insert(h.f, b, false)
		}
	}
}

func (c *mapCache) write(h *handle, off, n int64) {
	bs := c.params.BlockSize
	first, last := off/bs, (off+n-1)/bs
	for _, blk := range [2]int64{first, last} {
		covered := off <= blk*bs && off+n >= (blk+1)*bs
		if !covered && h.m.written(blk) && !c.present(h.f, blk) {
			c.insert(h.f, blk, false)
		}
	}
	for blk := first; blk <= last; blk++ {
		c.insert(h.f, blk, true)
	}
}

func (c *mapCache) present(f *File, blk int64) bool {
	_, ok := c.index[cacheKey{f, blk}]
	return ok
}

func (c *mapCache) hit(f *File, blk int64) bool {
	i, ok := c.index[cacheKey{f, blk}]
	if ok {
		c.promote(i)
	}
	return ok
}

func (c *mapCache) unlink(i int32) {
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

func (c *mapCache) pushFront(i int32) {
	e := &c.ents[i]
	e.prev, e.next = noEntry, c.head
	if c.head == noEntry {
		c.tail = i
	} else {
		c.ents[c.head].prev = i
	}
	c.head = i
}

func (c *mapCache) promote(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *mapCache) drop(i int32) {
	c.unlink(i)
	delete(c.index, c.ents[i].key)
	c.ents[i] = cacheEntry{next: c.free}
	c.free = i
	c.bytes -= c.params.BlockSize
}

func (c *mapCache) insert(f *File, blk int64, dirty bool) {
	key := cacheKey{f, blk}
	if i, ok := c.index[key]; ok {
		c.promote(i)
		if dirty {
			c.ents[i].dirty = true
		}
		return
	}
	bs := c.params.BlockSize
	for c.bytes+bs > c.params.CacheBytes && c.tail != noEntry {
		c.evictOne()
	}
	i := c.free
	if i == noEntry {
		i = int32(len(c.ents))
		c.ents = append(c.ents, cacheEntry{})
	} else {
		c.free = c.ents[i].next
	}
	c.ents[i] = cacheEntry{key: key, dirty: dirty}
	c.index[key] = i
	c.pushFront(i)
	c.bytes += bs
}

func (c *mapCache) evictOne() {
	if c.ents[c.tail].dirty {
		c.wroteBack++
	}
	c.drop(c.tail)
}

func (c *mapCache) flushFile(f *File) {
	for i := c.head; i != noEntry; i = c.ents[i].next {
		if c.ents[i].key.file == f {
			c.ents[i].dirty = false
		}
	}
}

func (c *mapCache) purgeFile(f *File) {
	for i := c.head; i != noEntry; {
		next := c.ents[i].next
		if c.ents[i].key.file == f {
			c.drop(i)
		}
		i = next
	}
}

func (c *mapCache) clear() {
	clear(c.index)
	c.ents = c.ents[:0]
	c.head, c.tail, c.free = noEntry, noEntry, noEntry
	c.bytes = 0
}

// checkCache holds the FS's page cache to the reference: the same blocks
// in the same LRU order with the same dirty flags, each entry found through
// its block's slot, and no other slot of any extent, removed files' and
// free ones included, naming an entry.
func (x *fsPair) checkCache() {
	x.t.Helper()
	c, r := x.fs.cache, x.ref
	n := 0
	i, j := c.head, r.head
	for ; i != noEntry && j != noEntry; i, j = c.ents[i].next, r.ents[j].next {
		got, want := c.ents[i].key, r.ents[j].key
		if got != want || c.ents[i].dirty != r.ents[j].dirty {
			x.t.Fatalf("LRU position %d: %s block %d (dirty %t), reference %s block %d (dirty %t)",
				n, got.file.name, got.blk, c.ents[i].dirty, want.file.name, want.blk, r.ents[j].dirty)
		}
		if slot, k := got.lookup(); slot == nil || k != i {
			x.t.Fatalf("%s block %d is cached in entry %d; its slot names %d", got.file.name, got.blk, i, k)
		}
		n++
	}
	if i != noEntry || j != noEntry {
		x.t.Fatalf("the LRU lists agree for %d blocks, then one ends (cache %t, reference %t)", n, i == noEntry, j == noEntry)
	}
	exts := slices.Clone(x.fs.freeExt)
	for _, h := range x.handles {
		for _, e := range h.f.data {
			if e != nil {
				exts = append(exts, e)
			}
		}
	}
	slots := 0
	for _, e := range exts {
		for _, s := range e.slot {
			if s != 0 {
				slots++
			}
		}
	}
	if slots != n || c.bytes != r.bytes {
		x.t.Fatalf("%d slots name an entry, %d blocks cached; %d bytes, reference %d", slots, n, c.bytes, r.bytes)
	}
}
