package pvfs

import (
	"fmt"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/ogr"
	"pvfsib/internal/sim"
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
// in the same byte order. It lives by value in its operation's plan, and its
// lists keep their backing from one operation to the next.
type serverPart struct {
	srv  int
	accs []OffLen
	segs []ib.SGE
	// cur walks the part request by request (runPart).
	cur chunkCursor
}

// opPlan is everything one operation builds to describe itself: the
// per-server parts, the cursors that cut them into requests and, for an
// operation that spans servers, what its fan-out shares. A client recycles
// its plans (takePlan, releasePlan): an operation owns one from start to
// finish, so two operations in flight on one client — an application call
// and a page-cache flush, say — never share one, and in steady state an
// operation allocates nothing to describe itself.
type opPlan struct {
	c *Client
	// parts holds the operation's parts in first-touch order; the elements
	// between len and cap are earlier operations', kept for their backing.
	parts []serverPart
	// exts is the gather registration's view of the memory segments, and
	// reg the scratch it plans its groups and keeps its result in.
	exts []mem.Extent
	reg  ogr.Scratch

	// The rest is the state of a fan-out (Client.fanOut): the servers the
	// shares go to, the function that runs one share, what the shares need
	// to know about the operation, and where they report.
	srvs   []int
	share  func(pl *opPlan, q *sim.Proc, i int)
	fileID int64
	kind   recKind // a whole-file request's (fileShare)
	pack   bool
	opts   OpOptions
	write  bool
	ctx    uint64 // the caller's trace context, inherited by the children
	err    error  // the first error a share ended with
	sizes  []int64
	wg     *sim.WaitGroup
	kids   []*fanChild
}

// takePlan hands the calling operation a plan of its own, most recently
// released first.
func (c *Client) takePlan() *opPlan {
	pl := c.plans.Take()
	if pl.c == nil {
		pl.c, pl.wg = c, c.cluster.Eng.NewWaitGroup()
	}
	return pl
}

// releasePlan takes back the plan of an operation that has returned; every
// share of its fan-out has finished by then.
func (c *Client) releasePlan(pl *opPlan) {
	pl.err, pl.share = nil, nil
	if sim.PoisonReleased {
		pl.poison()
	}
	c.plans.Put(pl)
}

// poison overwrites every list a released plan keeps, used or not, with
// values no operation could carry.
func (pl *opPlan) poison() {
	parts := pl.parts[:cap(pl.parts)]
	for i := range parts {
		p := &parts[i]
		p.srv = -1
		poisonAccs(p.accs)
		poisonSegs(p.segs)
		poisonAccs(p.cur.accs)
		poisonSegs(p.cur.segs)
		p.cur.part = nil
	}
	exts := pl.exts[:cap(pl.exts)]
	for i := range exts {
		exts[i] = mem.Extent{Addr: ^mem.Addr(0), Len: -1}
	}
	srvs := pl.srvs[:cap(pl.srvs)]
	for i := range srvs {
		srvs[i] = -1
	}
	pl.fileID = -1
}

func poisonAccs(accs []OffLen) {
	accs = accs[:cap(accs)]
	for i := range accs {
		accs[i] = OffLen{Off: -1, Len: -1}
	}
}

func poisonSegs(segs []ib.SGE) {
	segs = segs[:cap(segs)]
	for i := range segs {
		segs[i] = ib.SGE{Addr: ^mem.Addr(0), Len: -1}
	}
}

// part returns the plan's part for server srv, adding an empty one — on the
// backing of whatever part an earlier operation kept in that slot — when the
// operation has not touched the server yet. At most nServers parts exist, so
// finding one is a short scan.
func (pl *opPlan) part(srv int) *serverPart {
	for i := range pl.parts {
		if pl.parts[i].srv == srv {
			return &pl.parts[i]
		}
	}
	n := len(pl.parts)
	if n < cap(pl.parts) {
		pl.parts = pl.parts[:n+1]
	} else {
		pl.parts = append(pl.parts, serverPart{})
	}
	p := &pl.parts[n]
	p.srv, p.accs, p.segs = srv, p.accs[:0], p.segs[:0]
	return p
}

// split fans a list-I/O operation out by server, into pl.parts. The
// flattened memory stream and the flattened file stream describe the same
// bytes in the same order; both are cut at every stripe boundary and every
// segment/region boundary, and each fragment is appended to its server's
// part, preserving byte order within each server. The caller's lists are
// read, never kept.
func (pl *opPlan) split(memSegs []ib.SGE, fileAccs []OffLen, stripeSize int64, nServers int) error {
	pl.parts = pl.parts[:0]
	memTotal := ib.TotalLen(memSegs)
	fileTotal := TotalOffLen(fileAccs)
	if memTotal != fileTotal {
		return fmt.Errorf("pvfs: memory bytes (%d) != file bytes (%d)", memTotal, fileTotal)
	}
	for _, s := range memSegs {
		if s.Len <= 0 {
			return fmt.Errorf("pvfs: empty memory segment %v", s)
		}
	}
	for _, a := range fileAccs {
		if a.Len <= 0 || a.Off < 0 {
			return fmt.Errorf("pvfs: bad file region %+v", a)
		}
	}

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
		p := pl.part(srv)
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
		p.segs = appendSeg(p.segs, seg.Addr+mem.Addr(mo), n)
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
	return nil
}

// appendSeg extends a memory stream by n bytes at addr, growing the last
// segment when the bytes follow it directly.
func appendSeg(segs []ib.SGE, addr mem.Addr, n int64) []ib.SGE {
	if k := len(segs) - 1; k >= 0 && segs[k].Addr+mem.Addr(segs[k].Len) == addr {
		segs[k].Len += n
		return segs
	}
	return append(segs, ib.SGE{Addr: addr, Len: n})
}

// chunk is one request's worth of a server part.
type chunk struct {
	accs  []OffLen
	segs  []ib.SGE
	total int64
}

// chunkCursor cuts a server part into request-sized chunks, one per call of
// next: at most maxPairs file regions and at most maxBytes data each, the
// memory segments split at chunk boundaries so each chunk's streams stay
// aligned. A part that fits one request is that request — its lists are the
// chunk's, shared, not rebuilt; otherwise the chunk is built in the cursor's
// own lists, which the next call overwrites.
type chunkCursor struct {
	part     *serverPart
	maxPairs int
	maxBytes int64
	ai, si   int   // the region and the segment the next chunk starts in
	ao, so   int64 // bytes of them earlier chunks consumed
	accs     []OffLen
	segs     []ib.SGE
}

// chunks points the part's cursor at the part's first byte.
func (p *serverPart) chunks(maxPairs int, maxBytes int64) *chunkCursor {
	accs, segs := p.cur.accs, p.cur.segs
	p.cur = chunkCursor{part: p, maxPairs: maxPairs, maxBytes: maxBytes, accs: accs, segs: segs}
	return &p.cur
}

// next returns the part's next chunk, or false when the part is used up.
func (cc *chunkCursor) next() (chunk, bool) {
	p := cc.part
	if cc.ai == len(p.accs) {
		return chunk{}, false
	}
	if n := len(p.accs); cc.ai == 0 && cc.ao == 0 && n <= cc.maxPairs {
		if total := TotalOffLen(p.accs); total <= cc.maxBytes {
			cc.ai = n
			return chunk{accs: p.accs, segs: p.segs, total: total}, true
		}
	}
	ch := chunk{accs: cc.accs[:0], segs: cc.segs[:0]}
	for cc.ai < len(p.accs) && len(ch.accs) < cc.maxPairs && ch.total < cc.maxBytes {
		a := p.accs[cc.ai]
		n := min(a.Len-cc.ao, cc.maxBytes-ch.total)
		ch.accs = append(ch.accs, OffLen{Off: a.Off + cc.ao, Len: n})
		ch.total += n
		if cc.ao += n; cc.ao == a.Len {
			cc.ai, cc.ao = cc.ai+1, 0
		}
		for n > 0 {
			seg := p.segs[cc.si]
			take := min(seg.Len-cc.so, n)
			ch.segs = appendSeg(ch.segs, seg.Addr+mem.Addr(cc.so), take)
			if cc.so += take; cc.so == seg.Len {
				cc.si, cc.so = cc.si+1, 0
			}
			n -= take
		}
	}
	cc.accs, cc.segs = ch.accs, ch.segs
	return ch, true
}
