package mpiio

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
)

// Two-phase collective I/O: the file's global extent is partitioned evenly
// among the ranks ("file domains"); in the exchange phase each rank ships
// its pieces to the domain owners over the compute-node network, and in the
// I/O phase every owner performs one large contiguous PVFS access for its
// domain. This turns many small noncontiguous server accesses into a few
// big ones at the cost of inter-client communication — the tradeoff Table 6
// quantifies (row "communication between the compute nodes").

// ErrNoWorld is returned for collective calls on a file opened without a
// rank.
var ErrNoWorld = errors.New("mpiio: collective operation on a file opened without an MPI rank")

// pieceRef is one file piece owned by a given domain, with the local memory
// fragments that carry its bytes.
type pieceRef struct {
	off, length int64
	frags       []ib.SGE
}

// tpScratch is the descriptor storage of a two-phase round, kept per client
// (clientState) from one round to the next so that a round in steady state
// allocates none: what clipToExtent cut the round's window down to, the
// round's file domains, what splitByOwner made of that (frags backs every
// pieceRef.frags of the round), the messages for each peer, and the spans of
// the pieces a write round received.
type tpScratch struct {
	segs  []ib.SGE
	accs  []pvfs.OffLen
	doms  []pvfs.OffLen
	owned [][]pieceRef
	frags []ib.SGE
	parts [][]byte
	spans []span
	// ext is the rank's extent as exchangeExtents encodes it.
	ext [16]byte
	// piece is forEachPiece's fragment list; the independent Multiple I/O
	// path walks its pieces with it too.
	piece []ib.SGE
}

// span is a file range [lo, hi).
type span struct{ lo, hi int64 }

// domains splits [lo, hi) into n even shares, in sc.doms.
func (sc *tpScratch) domains(lo, hi int64, n int) []pvfs.OffLen {
	out := slices.Grow(sc.doms[:0], n)[:n]
	sc.doms = out
	clear(out)
	if hi <= lo {
		return out
	}
	share := (hi - lo + int64(n) - 1) / int64(n)
	for i := range out {
		dLo := lo + int64(i)*share
		dHi := dLo + share
		if dHi > hi {
			dHi = hi
		}
		if dHi > dLo {
			out[i] = pvfs.OffLen{Off: dLo, Len: dHi - dLo}
		}
	}
	return out
}

// splitByOwner cuts the aligned streams at domain boundaries into sc.owned,
// one list of pieces per domain.
func (sc *tpScratch) splitByOwner(memSegs []ib.SGE, fileAccs []pvfs.OffLen, doms []pvfs.OffLen) ([][]pieceRef, error) {
	if len(sc.owned) != len(doms) {
		sc.owned = make([][]pieceRef, len(doms))
	}
	for i := range sc.owned {
		sc.owned[i] = slices.Grow(sc.owned[i][:0], len(fileAccs)/len(doms)+1)
	}
	// Every cut, at a piece's end or at a domain boundary, starts one
	// fragment more than the segments alone make.
	sc.frags = slices.Grow(sc.frags[:0], len(memSegs)+len(fileAccs)+len(doms))
	ownerOf := func(off int64) int {
		for i, d := range doms {
			if d.Len > 0 && off >= d.Off && off < d.End() {
				return i
			}
		}
		return -1
	}
	err := forEachPiece(&sc.piece, memSegs, fileAccs, func(acc pvfs.OffLen, segs []ib.SGE) error {
		// A piece may straddle domain boundaries; cut it.
		cur := memCursor{segs: segs}
		off := acc.Off
		remaining := acc.Len
		for remaining > 0 {
			owner := ownerOf(off)
			if owner < 0 {
				return fmt.Errorf("mpiio: offset %d outside global extent", off)
			}
			n := min(doms[owner].End()-off, remaining)
			at := len(sc.frags)
			sc.frags = cur.take(sc.frags, n)
			sc.owned[owner] = append(sc.owned[owner], pieceRef{off: off, length: n, frags: sc.frags[at:len(sc.frags):len(sc.frags)]})
			off += n
			remaining -= n
		}
		return nil
	})
	return sc.owned, err
}

// messages returns sc.parts cut to one empty message per rank.
func (sc *tpScratch) messages(n int) [][]byte {
	sc.parts = slices.Grow(sc.parts[:0], n)[:n]
	clear(sc.parts)
	return sc.parts
}

// exchangeExtents allgathers each rank's (lo,hi) and returns the global
// extent; ranks with no accesses contribute an empty sentinel.
func (f *File) exchangeExtents(p *sim.Proc, sc *tpScratch, fileAccs []pvfs.OffLen) (int64, int64) {
	lo, hi := int64(math.MaxInt64), int64(-1)
	if len(fileAccs) > 0 {
		lo, hi = extentOf(fileAccs)
	}
	enc := sc.ext[:]
	binary.LittleEndian.PutUint64(enc, uint64(lo))
	binary.LittleEndian.PutUint64(enc[8:], uint64(hi))
	all := f.rank.Allgather(p, enc)
	glo, ghi := int64(math.MaxInt64), int64(-1)
	for _, e := range all {
		l := int64(binary.LittleEndian.Uint64(e))
		h := int64(binary.LittleEndian.Uint64(e[8:]))
		if h < 0 {
			continue
		}
		if l < glo {
			glo = l
		}
		if h > ghi {
			ghi = h
		}
	}
	all[f.rank.ID()] = nil // enc itself, not a message body
	f.release(all)
	return glo, ghi
}

// ensureTPBuf sizes the two-phase assembly buffer to at least n bytes.
func (f *File) ensureTPBuf(n int64) mem.Addr {
	if f.tpBufSize < n {
		f.tpBuf = f.client.Space().Malloc(n)
		f.tpBufSize = n
	}
	return f.tpBuf
}

// release gives message bodies this rank is done with — received, or its
// own passed through an exchange — to the rank's pool. Bodies handed to an
// owning send are the receiver's to release, not the sender's.
func (f *File) release(bufs [][]byte) {
	for _, b := range bufs {
		f.rank.Scratch().Put(b)
	}
}

// clipToExtent cuts the aligned streams down to the pieces intersecting
// [lo, hi), preserving byte order; the result lives in sc until the next
// call.
func (sc *tpScratch) clipToExtent(memSegs []ib.SGE, fileAccs []pvfs.OffLen, lo, hi int64) ([]ib.SGE, []pvfs.OffLen, error) {
	sc.accs = slices.Grow(sc.accs[:0], len(fileAccs))
	sc.segs = slices.Grow(sc.segs[:0], len(memSegs)+len(fileAccs))
	err := forEachPiece(&sc.piece, memSegs, fileAccs, func(acc pvfs.OffLen, segs []ib.SGE) error {
		// Cut the piece against the window.
		cutLo, cutHi := acc.Off, acc.End()
		if cutLo < lo {
			cutLo = lo
		}
		if cutHi > hi {
			cutHi = hi
		}
		if cutHi <= cutLo {
			return nil
		}
		sc.accs = append(sc.accs, pvfs.OffLen{Off: cutLo, Len: cutHi - cutLo})
		cur := memCursor{segs: segs}
		cur.skip(cutLo - acc.Off)
		sc.segs = cur.take(sc.segs, cutHi-cutLo)
		return nil
	})
	return sc.segs, sc.accs, err
}

// collectiveWindow is each rank's share of one two-phase round (ROMIO's
// cb_buffer_size); a round covers Size() times this many bytes.
const collectiveWindow = 4 << 20

// collectiveRounds drives one collective access, write or read alike: agree
// on the global extent, then run round over it window by window.
func (f *File) collectiveRounds(p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen,
	round func(f *File, p *sim.Proc, sc *tpScratch, memSegs []ib.SGE, fileAccs []pvfs.OffLen, glo, ghi int64) error) error {
	if f.rank == nil {
		return ErrNoWorld
	}
	sc := f.st.scratch()
	defer f.st.done(sc)
	glo, ghi := f.exchangeExtents(p, sc, fileAccs)
	if ghi <= glo {
		f.rank.Barrier(p)
		return nil
	}
	// Process the global extent in rounds so each rank's assembly buffer
	// stays bounded, like ROMIO's collective buffering.
	window := f.cbWindow
	if window <= 0 {
		window = collectiveWindow
	}
	step := window * int64(f.rank.Size())
	for lo := glo; lo < ghi; lo += step {
		hi := min(lo+step, ghi)
		segs, accs, err := sc.clipToExtent(memSegs, fileAccs, lo, hi)
		if err != nil {
			return err
		}
		if err := round(f, p, sc, segs, accs, lo, hi); err != nil {
			return err
		}
	}
	f.rank.Barrier(p)
	return nil
}

// Exchange messages carry pieces back to back, each a 16-byte header (file
// offset, length) followed, in a write round, by the piece's bytes.
const pieceHdr = 16

func putPieceHdr(b []byte, off, length int64) {
	binary.LittleEndian.PutUint64(b, uint64(off))
	binary.LittleEndian.PutUint64(b[8:], uint64(length))
}

func pieceHdrAt(b []byte) (off, length int64) {
	return int64(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint64(b[8:]))
}

func (f *File) collectiveWriteRound(p *sim.Proc, sc *tpScratch, memSegs []ib.SGE, fileAccs []pvfs.OffLen, glo, ghi int64) error {
	doms := sc.domains(glo, ghi, f.rank.Size())
	owned, err := sc.splitByOwner(memSegs, fileAccs, doms)
	if err != nil {
		return err
	}
	cfgIB := f.client.Cluster().Cfg.IB
	space, pool := f.client.Space(), f.rank.Scratch()

	// Exchange phase: encode (off, len, data) pieces per owner, each owner's
	// message sized up front and filled in place. The messages are handed
	// over, not copied: each becomes its owner's to release, and what this
	// rank receives (its own message included) goes to its pool once the
	// domain is assembled.
	parts := sc.messages(f.rank.Size())
	var packed int64
	for owner, pieces := range owned {
		size := 0
		for _, pc := range pieces {
			size += pieceHdr + int(pc.length)
		}
		buf := pool.Get(size)
		at := int64(0)
		for _, pc := range pieces {
			putPieceHdr(buf[at:], pc.off, pc.length)
			at += pieceHdr
			for _, s := range pc.frags {
				if err := space.ReadInto(s.Addr, buf[at:at+s.Len]); err != nil {
					return err
				}
				at += s.Len
			}
			packed += pc.length
		}
		parts[owner] = buf
	}
	p.Sleep(cfgIB.MemcpyTime(packed))
	got := f.rank.AlltoallvOwned(p, parts)
	defer f.release(got)

	// I/O phase: assemble my domain and write it contiguously.
	spans := sc.spans[:0]
	for _, msg := range got {
		for len(msg) > 0 {
			off, length := pieceHdrAt(msg)
			spans = append(spans, span{off, off + length})
			msg = msg[pieceHdr+length:]
		}
	}
	sc.spans = spans
	if len(spans) == 0 {
		return nil
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	wLo, wHi := spans[0].lo, spans[0].hi
	dense := true
	for _, s := range spans[1:] {
		if s.lo > wHi {
			dense = false
		}
		if s.hi > wHi {
			wHi = s.hi
		}
	}
	buf := f.ensureTPBuf(wHi - wLo)
	if !dense {
		// Holes inside the write region: read-modify-write.
		if err := f.fh.Read(p, buf, wHi-wLo, wLo, pvfs.OpOptions{Sieve: sieve.Never}); err != nil {
			return err
		}
	}
	var assembled int64
	for _, msg := range got {
		for len(msg) > 0 {
			off, length := pieceHdrAt(msg)
			if err := space.Write(buf+mem.Addr(off-wLo), msg[pieceHdr:pieceHdr+length]); err != nil {
				return err
			}
			assembled += length
			msg = msg[pieceHdr+length:]
		}
	}
	p.Sleep(cfgIB.MemcpyTime(assembled))
	return f.fh.Write(p, buf, wHi-wLo, wLo, pvfs.OpOptions{Sieve: sieve.Never})
}

func (f *File) collectiveReadRound(p *sim.Proc, sc *tpScratch, memSegs []ib.SGE, fileAccs []pvfs.OffLen, glo, ghi int64) error {
	doms := sc.domains(glo, ghi, f.rank.Size())
	owned, err := sc.splitByOwner(memSegs, fileAccs, doms)
	if err != nil {
		return err
	}
	cfgIB := f.client.Cluster().Cfg.IB
	space, pool := f.client.Space(), f.rank.Scratch()

	// Phase 1: ship request descriptors to the owners.
	reqs := sc.messages(f.rank.Size())
	for owner, pieces := range owned {
		buf := pool.Get(pieceHdr * len(pieces))
		for i, pc := range pieces {
			putPieceHdr(buf[pieceHdr*i:], pc.off, pc.length)
		}
		reqs[owner] = buf
	}
	gotReqs := f.rank.AlltoallvOwned(p, reqs)
	// The requests go back to the pool before the second exchange, which
	// returns its parts in the same slice.
	replies, err := f.carveReplies(p, sc, gotReqs)
	f.release(gotReqs)
	if err != nil {
		return err
	}
	gotData := f.rank.AlltoallvOwned(p, replies)
	defer f.release(gotData)

	// Scatter the replies into my memory fragments, in piece order.
	var scattered int64
	for owner, pieces := range owned {
		data := gotData[owner]
		for _, pc := range pieces {
			for _, s := range pc.frags {
				if err := space.Write(s.Addr, data[:s.Len]); err != nil {
					return err
				}
				data = data[s.Len:]
				scattered += s.Len
			}
		}
	}
	p.Sleep(cfgIB.MemcpyTime(scattered))
	return nil
}

// carveReplies is a read round's I/O phase: read the requested span of my
// domain once, then carve out each requester's pieces, one reply per rank
// in sc.parts.
func (f *File) carveReplies(p *sim.Proc, sc *tpScratch, gotReqs [][]byte) ([][]byte, error) {
	space, pool := f.client.Space(), f.rank.Scratch()
	rLo, rHi := int64(math.MaxInt64), int64(-1)
	for _, msg := range gotReqs {
		for ; len(msg) > 0; msg = msg[pieceHdr:] {
			off, length := pieceHdrAt(msg)
			rLo, rHi = min(rLo, off), max(rHi, off+length)
		}
	}
	replies := sc.messages(f.rank.Size())
	if rHi <= rLo {
		return replies, nil
	}
	buf := f.ensureTPBuf(rHi - rLo)
	if err := f.fh.Read(p, buf, rHi-rLo, rLo, pvfs.OpOptions{Sieve: sieve.Never}); err != nil {
		return nil, err
	}
	var carved int64
	for src, req := range gotReqs {
		size := int64(0)
		for msg := req; len(msg) > 0; msg = msg[pieceHdr:] {
			_, length := pieceHdrAt(msg)
			size += length
		}
		out := pool.Get(int(size))
		at := int64(0)
		for msg := req; len(msg) > 0; msg = msg[pieceHdr:] {
			off, length := pieceHdrAt(msg)
			if err := space.ReadInto(buf+mem.Addr(off-rLo), out[at:at+length]); err != nil {
				return nil, err
			}
			at += length
		}
		carved += size
		replies[src] = out
	}
	p.Sleep(f.client.Cluster().Cfg.IB.MemcpyTime(carved))
	return replies, nil
}
