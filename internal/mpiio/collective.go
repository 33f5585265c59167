package mpiio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

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

// domains splits [lo, hi) into n even shares.
func domains(lo, hi int64, n int) []pvfs.OffLen {
	out := make([]pvfs.OffLen, n)
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

// splitByOwner cuts the aligned streams at domain boundaries.
func splitByOwner(memSegs []ib.SGE, fileAccs []pvfs.OffLen, doms []pvfs.OffLen) ([][]pieceRef, error) {
	owned := make([][]pieceRef, len(doms))
	ownerOf := func(off int64) int {
		for i, d := range doms {
			if d.Len > 0 && off >= d.Off && off < d.End() {
				return i
			}
		}
		return -1
	}
	err := forEachPiece(memSegs, fileAccs, func(acc pvfs.OffLen, segs []ib.SGE) error {
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
			frags := cur.take(nil, n)
			owned[owner] = append(owned[owner], pieceRef{off: off, length: n, frags: frags})
			off += n
			remaining -= n
		}
		return nil
	})
	return owned, err
}

// exchangeExtents allgathers each rank's (lo,hi) and returns the global
// extent; ranks with no accesses contribute an empty sentinel.
func (f *File) exchangeExtents(p *sim.Proc, fileAccs []pvfs.OffLen) (int64, int64) {
	lo, hi := int64(math.MaxInt64), int64(-1)
	if len(fileAccs) > 0 {
		lo, hi = extentOf(fileAccs)
	}
	enc := make([]byte, 16)
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

// putAll returns a round's exchange buffers to the rank's pool.
func (f *File) putAll(bufs [][]byte) {
	for _, b := range bufs {
		f.scratch.Put(b)
	}
}

// clipToExtent cuts the aligned streams down to the pieces intersecting
// [lo, hi), preserving byte order.
func clipToExtent(memSegs []ib.SGE, fileAccs []pvfs.OffLen, lo, hi int64) ([]ib.SGE, []pvfs.OffLen, error) {
	var outSegs []ib.SGE
	var outAccs []pvfs.OffLen
	err := forEachPiece(memSegs, fileAccs, func(acc pvfs.OffLen, segs []ib.SGE) error {
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
		outAccs = append(outAccs, pvfs.OffLen{Off: cutLo, Len: cutHi - cutLo})
		cur := memCursor{segs: segs}
		cur.skip(cutLo - acc.Off)
		outSegs = cur.take(outSegs, cutHi-cutLo)
		return nil
	})
	return outSegs, outAccs, err
}

// collectiveWindow is each rank's share of one two-phase round (ROMIO's
// cb_buffer_size); a round covers Size() times this many bytes.
const collectiveWindow = 4 << 20

// collectiveRounds drives one collective access, write or read alike: agree
// on the global extent, then run round over it window by window.
func (f *File) collectiveRounds(p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen,
	round func(f *File, p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen, glo, ghi int64) error) error {
	if f.rank == nil {
		return ErrNoWorld
	}
	glo, ghi := f.exchangeExtents(p, fileAccs)
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
		segs, accs, err := clipToExtent(memSegs, fileAccs, lo, hi)
		if err != nil {
			return err
		}
		if err := round(f, p, segs, accs, lo, hi); err != nil {
			return err
		}
	}
	f.rank.Barrier(p)
	return nil
}

func (f *File) collectiveWriteRound(p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen, glo, ghi int64) error {
	doms := domains(glo, ghi, f.rank.Size())
	owned, err := splitByOwner(memSegs, fileAccs, doms)
	if err != nil {
		return err
	}
	cfgIB := f.client.Cluster().Cfg.IB

	// Exchange phase: encode (off, len, data) pieces per owner, each owner's
	// message sized up front and filled in place. Messages are copied on
	// send, and this rank's own passes through got, so they go back to the
	// pool when the round is over.
	parts := make([][]byte, f.rank.Size())
	defer f.putAll(parts)
	var packed int64
	for owner, pieces := range owned {
		size := 0
		for _, pc := range pieces {
			size += 16 + int(pc.length)
		}
		buf := f.scratch.Get(size)
		at := int64(0)
		for _, pc := range pieces {
			binary.LittleEndian.PutUint64(buf[at:], uint64(pc.off))
			binary.LittleEndian.PutUint64(buf[at+8:], uint64(pc.length))
			at += 16
			for _, s := range pc.frags {
				if err := f.client.Space().ReadInto(s.Addr, buf[at:at+s.Len]); err != nil {
					return err
				}
				at += s.Len
			}
			packed += pc.length
		}
		parts[owner] = buf
	}
	p.Sleep(cfgIB.MemcpyTime(packed))
	got := f.rank.Alltoallv(p, parts)

	// I/O phase: assemble my domain and write it contiguously.
	type span struct{ lo, hi int64 }
	var pieces []span
	var raw []struct {
		off  int64
		data []byte
	}
	for _, msg := range got {
		for len(msg) > 0 {
			off := int64(binary.LittleEndian.Uint64(msg))
			length := int64(binary.LittleEndian.Uint64(msg[8:]))
			data := msg[16 : 16+length]
			msg = msg[16+length:]
			pieces = append(pieces, span{off, off + length})
			raw = append(raw, struct {
				off  int64
				data []byte
			}{off, data})
		}
	}
	if len(pieces) == 0 {
		return nil
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].lo < pieces[j].lo })
	wLo, wHi := pieces[0].lo, pieces[0].hi
	dense := true
	for _, s := range pieces[1:] {
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
	for _, pc := range raw {
		if err := f.client.Space().Write(buf+mem.Addr(pc.off-wLo), pc.data); err != nil {
			return err
		}
		assembled += int64(len(pc.data))
	}
	p.Sleep(cfgIB.MemcpyTime(assembled))
	return f.fh.Write(p, buf, wHi-wLo, wLo, pvfs.OpOptions{Sieve: sieve.Never})
}

func (f *File) collectiveReadRound(p *sim.Proc, memSegs []ib.SGE, fileAccs []pvfs.OffLen, glo, ghi int64) error {
	doms := domains(glo, ghi, f.rank.Size())
	owned, err := splitByOwner(memSegs, fileAccs, doms)
	if err != nil {
		return err
	}
	cfgIB := f.client.Cluster().Cfg.IB

	// Phase 1: ship request descriptors to the owners.
	reqs := make([][]byte, f.rank.Size())
	for owner, pieces := range owned {
		buf := make([]byte, 0, 16*len(pieces))
		for _, pc := range pieces {
			var hdr [16]byte
			binary.LittleEndian.PutUint64(hdr[:], uint64(pc.off))
			binary.LittleEndian.PutUint64(hdr[8:], uint64(pc.length))
			buf = append(buf, hdr[:]...)
		}
		reqs[owner] = buf
	}
	gotReqs := f.rank.Alltoallv(p, reqs)

	// I/O phase: read the requested span of my domain once, then carve
	// out each requester's pieces.
	type reqPiece struct{ off, length int64 }
	perSrc := make([][]reqPiece, len(gotReqs))
	rLo, rHi := int64(math.MaxInt64), int64(-1)
	for src, msg := range gotReqs {
		for len(msg) > 0 {
			off := int64(binary.LittleEndian.Uint64(msg))
			length := int64(binary.LittleEndian.Uint64(msg[8:]))
			msg = msg[16:]
			perSrc[src] = append(perSrc[src], reqPiece{off, length})
			if off < rLo {
				rLo = off
			}
			if off+length > rHi {
				rHi = off + length
			}
		}
	}
	replies := make([][]byte, f.rank.Size())
	defer f.putAll(replies)
	if rHi > rLo {
		buf := f.ensureTPBuf(rHi - rLo)
		if err := f.fh.Read(p, buf, rHi-rLo, rLo, pvfs.OpOptions{Sieve: sieve.Never}); err != nil {
			return err
		}
		var carved int64
		for src, pieces := range perSrc {
			size := int64(0)
			for _, pc := range pieces {
				size += pc.length
			}
			out := f.scratch.Get(int(size))
			at := int64(0)
			for _, pc := range pieces {
				if err := f.client.Space().ReadInto(buf+mem.Addr(pc.off-rLo), out[at:at+pc.length]); err != nil {
					return err
				}
				at += pc.length
			}
			carved += size
			replies[src] = out
		}
		p.Sleep(cfgIB.MemcpyTime(carved))
	}
	gotData := f.rank.Alltoallv(p, replies)

	// Scatter the replies into my memory fragments, in piece order.
	var scattered int64
	for owner, pieces := range owned {
		data := gotData[owner]
		for _, pc := range pieces {
			for _, s := range pc.frags {
				if err := f.client.Space().Write(s.Addr, data[:s.Len]); err != nil {
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
