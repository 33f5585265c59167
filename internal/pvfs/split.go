package pvfs

import (
	"fmt"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
)

// Striping: file offset off lives in stripe off/StripeSize; stripe k is
// stored on server k % N at local offset (k/N)*StripeSize + off%StripeSize.

// locate maps a file offset to its server and server-local offset.
func locate(off, stripeSize int64, nServers int) (srv int, local int64) {
	stripe := off / stripeSize
	srv = int(stripe % int64(nServers))
	local = (stripe/int64(nServers))*stripeSize + off%stripeSize
	return
}

// serverPart is the portion of a list-I/O operation destined for one server:
// server-local file regions plus the matching client memory segments, both
// in the same byte order.
type serverPart struct {
	srv  int
	accs []OffLen
	segs []ib.SGE
}

// splitOp fans a list-I/O operation out by server. The flattened memory
// stream and the flattened file stream describe the same bytes in the same
// order; both are cut at every stripe boundary and every segment/region
// boundary, and each fragment is appended to its server's part, preserving
// byte order within each server.
func splitOp(memSegs []ib.SGE, fileAccs []OffLen, stripeSize int64, nServers int) ([]*serverPart, error) {
	memTotal := ib.TotalLen(memSegs)
	fileTotal := TotalOffLen(fileAccs)
	if memTotal != fileTotal {
		return nil, fmt.Errorf("pvfs: memory bytes (%d) != file bytes (%d)", memTotal, fileTotal)
	}
	for _, s := range memSegs {
		if s.Len <= 0 {
			return nil, fmt.Errorf("pvfs: empty memory segment %v", s)
		}
	}
	for _, a := range fileAccs {
		if a.Len <= 0 || a.Off < 0 {
			return nil, fmt.Errorf("pvfs: bad file region %+v", a)
		}
	}

	// Parts in first-touch order; at most nServers of them, so finding a
	// server's part is a short scan.
	ordered := make([]*serverPart, 0, nServers)

	mi, fi := 0, 0   // current segment / region index
	var mo, fo int64 // bytes consumed within each
	remaining := fileTotal
	for remaining > 0 {
		seg, acc := memSegs[mi], fileAccs[fi]
		fileOff := acc.Off + fo
		// Bytes until the next cut: end of segment, end of region, or
		// stripe boundary.
		n := seg.Len - mo
		if r := acc.Len - fo; r < n {
			n = r
		}
		if b := stripeSize - fileOff%stripeSize; b < n {
			n = b
		}
		srv, local := locate(fileOff, stripeSize, nServers)
		var p *serverPart
		for _, q := range ordered {
			if q.srv == srv {
				p = q
				break
			}
		}
		if p == nil {
			p = &serverPart{srv: srv}
			ordered = append(ordered, p)
		}
		// The two streams only need to carry the same bytes in the same
		// order — they are not paired element-wise — so merge adjacent
		// fragments on each side independently. File-side merging is what
		// collapses a contiguous write from noncontiguous memory into one
		// server access (and is also PVFS's behaviour: "merge happens
		// only when the actual file accesses ... are contiguous").
		if k := len(p.accs) - 1; k >= 0 && p.accs[k].End() == local {
			p.accs[k].Len += n
		} else {
			p.accs = append(p.accs, OffLen{Off: local, Len: n})
		}
		if k := len(p.segs) - 1; k >= 0 &&
			p.segs[k].Addr+mem.Addr(p.segs[k].Len) == seg.Addr+mem.Addr(mo) {
			p.segs[k].Len += n
		} else {
			p.segs = append(p.segs, ib.SGE{Addr: seg.Addr + mem.Addr(mo), Len: n})
		}
		mo += n
		fo += n
		remaining -= n
		if mo == seg.Len {
			mi, mo = mi+1, 0
		}
		if fo == acc.Len {
			fi, fo = fi+1, 0
		}
	}
	return ordered, nil
}

// chunk is one request's worth of a server part.
type chunk struct {
	accs  []OffLen
	segs  []ib.SGE
	total int64
}

// chunkPart cuts a server part into request-sized chunks: at most maxPairs
// file regions and at most maxBytes data per chunk. Memory segments are
// split at chunk boundaries so each chunk's streams stay aligned. A part
// that fits one request is that request: its lists are the chunk's, shared,
// not rebuilt.
func chunkPart(p *serverPart, maxPairs int, maxBytes int64) []chunk {
	if n := len(p.accs); 0 < n && n <= maxPairs {
		if total := TotalOffLen(p.accs); total <= maxBytes {
			return []chunk{{accs: p.accs, segs: p.segs, total: total}}
		}
	}
	return cutPart(p, maxPairs, maxBytes)
}

// cutPart is chunkPart's general case, building every chunk element by
// element.
func cutPart(p *serverPart, maxPairs int, maxBytes int64) []chunk {
	var chunks []chunk
	var cur chunk
	flush := func() {
		if len(cur.accs) > 0 {
			chunks = append(chunks, cur)
			cur = chunk{}
		}
	}
	si := 0
	var so int64 // bytes consumed of segs[si]
	takeSegs := func(n int64) {
		for n > 0 {
			seg := p.segs[si]
			take := seg.Len - so
			if take > n {
				take = n
			}
			// Merge into the last chunk segment when contiguous.
			if k := len(cur.segs) - 1; k >= 0 &&
				cur.segs[k].Addr+mem.Addr(cur.segs[k].Len) == seg.Addr+mem.Addr(so) {
				cur.segs[k].Len += take
			} else {
				cur.segs = append(cur.segs, ib.SGE{Addr: seg.Addr + mem.Addr(so), Len: take})
			}
			so += take
			if so == seg.Len {
				si, so = si+1, 0
			}
			n -= take
		}
	}
	for _, a := range p.accs {
		for a.Len > 0 {
			if len(cur.accs) >= maxPairs || cur.total >= maxBytes {
				flush()
			}
			n := a.Len
			if room := maxBytes - cur.total; n > room {
				n = room
			}
			cur.accs = append(cur.accs, OffLen{Off: a.Off, Len: n})
			cur.total += n
			takeSegs(n)
			a.Off += n
			a.Len -= n
		}
	}
	flush()
	return chunks
}
