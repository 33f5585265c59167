package pvfs

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
)

// The reference: the splitter and the chunker as they were when every call
// built fresh lists — refSplitOp, refChunkPart and refCutPart are the old
// splitOp, chunkPart and cutPart verbatim. The plan's splitter and the chunk
// cursor must produce what they produce, element for element.

func refSplitOp(memSegs []ib.SGE, fileAccs []OffLen, stripeSize int64, nServers int) ([]*serverPart, error) {
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

func refChunkPart(p *serverPart, maxPairs int, maxBytes int64) []chunk {
	if n := len(p.accs); 0 < n && n <= maxPairs {
		if total := TotalOffLen(p.accs); total <= maxBytes {
			return []chunk{{accs: p.accs, segs: p.segs, total: total}}
		}
	}
	return refCutPart(p, maxPairs, maxBytes)
}

func refCutPart(p *serverPart, maxPairs int, maxBytes int64) []chunk {
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

// splitOp and chunkPart give the tests written against the allocating
// functions the shapes those returned: the parts of a fresh plan by pointer,
// and a part's chunks collected — one the cursor built in its own lists is
// copied out, since the cursor's next call overwrites them.
func splitOp(memSegs []ib.SGE, fileAccs []OffLen, stripeSize int64, nServers int) ([]*serverPart, error) {
	pl := new(opPlan)
	if err := pl.split(memSegs, fileAccs, stripeSize, nServers); err != nil {
		return nil, err
	}
	parts := make([]*serverPart, len(pl.parts))
	for i := range pl.parts {
		parts[i] = &pl.parts[i]
	}
	return parts, nil
}

func chunkPart(p *serverPart, maxPairs int, maxBytes int64) []chunk {
	var out []chunk
	for cc := p.chunks(maxPairs, maxBytes); ; {
		ch, ok := cc.next()
		if !ok {
			return out
		}
		if &ch.accs[0] != &p.accs[0] {
			ch.accs, ch.segs = slices.Clone(ch.accs), slices.Clone(ch.segs)
		}
		out = append(out, ch)
	}
}

// usedPlan is the plan every split-and-chunk check runs on, released —
// poisoned — after each, so a check meets what all the earlier ones left in
// the plan's lists.
var usedPlan opPlan

// checkSplitChunks holds the plan's splitter and the chunk cursor to the
// reference for one operation.
func checkSplitChunks(t testing.TB, segs []ib.SGE, accs []OffLen, stripe int64, nServers, maxPairs int, maxBytes int64) {
	t.Helper()
	pl := &usedPlan
	defer pl.poison()
	want, wantErr := refSplitOp(segs, accs, stripe, nServers)
	err := pl.split(segs, accs, stripe, nServers)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("split error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if len(pl.parts) != len(want) {
		t.Fatalf("%d parts, reference %d", len(pl.parts), len(want))
	}
	for i := range pl.parts {
		got, ref := &pl.parts[i], want[i]
		if got.srv != ref.srv || !slices.Equal(got.accs, ref.accs) || !slices.Equal(got.segs, ref.segs) {
			t.Fatalf("part %d: io%d %v %v\nreference: io%d %v %v", i, got.srv, got.accs, got.segs, ref.srv, ref.accs, ref.segs)
		}
		refChunks := refChunkPart(ref, maxPairs, maxBytes)
		cc := got.chunks(maxPairs, maxBytes)
		for k := 0; ; k++ {
			ch, ok := cc.next()
			if !ok {
				if k != len(refChunks) {
					t.Fatalf("part %d: %d chunks, reference %d", i, k, len(refChunks))
				}
				break
			}
			if k >= len(refChunks) {
				t.Fatalf("part %d: more than the reference's %d chunks", i, len(refChunks))
			}
			if rc := refChunks[k]; ch.total != rc.total || !slices.Equal(ch.accs, rc.accs) || !slices.Equal(ch.segs, rc.segs) {
				t.Fatalf("part %d chunk %d (limits %d pairs, %d bytes):\n%+v\nreference:\n%+v", i, k, maxPairs, maxBytes, ch, rc)
			}
		}
	}
}

// decodeSplitCase maps the fuzzer's bytes to an operation: stripe size,
// server count and request limits, then (gap, length) pairs — the first
// half of them file regions, the rest memory segments, the last segment
// stretched or cut so that both streams carry the same bytes.
func decodeSplitCase(enc []byte) (segs []ib.SGE, accs []OffLen, stripe int64, nServers, maxPairs int, maxBytes int64) {
	stripe = 512 << (enc[0] % 8)
	nServers = 1 + int(enc[1]%5)
	maxPairs = 1 + int(enc[2]%16)
	maxBytes = 1 + int64(binary.LittleEndian.Uint16(enc[3:]))*int64(1+enc[5]%8)
	pairs := enc[6:]
	n := min(len(pairs)/3, 96)
	var total int64
	off := int64(enc[0])
	for i := 0; i < (n+1)/2; i++ {
		gap, l := int64(pairs[3*i]%4)*int64(pairs[3*i]), 1+int64(binary.LittleEndian.Uint16(pairs[3*i+1:]))%(3*stripe)
		off += gap
		accs = append(accs, OffLen{Off: off, Len: l})
		off += l
		total += l
	}
	addr := mem.Addr(0x10000)
	for i := (n + 1) / 2; total > 0; i++ {
		gap, l := int64(0), total
		if i < n {
			gap, l = int64(pairs[3*i]%2)*64, min(total, 1+int64(binary.LittleEndian.Uint16(pairs[3*i+1:]))%(3*stripe))
		}
		addr += mem.Addr(gap)
		segs = append(segs, ib.SGE{Addr: addr, Len: l})
		addr += mem.Addr(l)
		total -= l
	}
	return
}

// FuzzSplitChunks drives checkSplitChunks from encoded operations.
func FuzzSplitChunks(f *testing.F) {
	f.Add([]byte{7, 3, 127, 0, 16, 0, 0, 0, 12, 0, 0, 12, 0, 0, 12, 0, 0, 36})                    // three 3 kB regions from one segment, the Multiple I/O shape
	f.Add([]byte{0, 4, 1, 255, 0, 0, 1, 255, 1, 2, 255, 3, 3, 0, 2, 0, 255, 0, 1, 7, 7, 0, 9, 1}) // 512-byte stripes, one pair a request
	f.Add([]byte{3, 1, 15, 9, 0, 2, 0, 255, 255, 5, 255, 255, 1, 0, 1, 0, 255, 255})              // requests cut by bytes inside a region
	f.Fuzz(func(t *testing.T, enc []byte) {
		if len(enc) < 9 {
			return
		}
		segs, accs, stripe, nServers, maxPairs, maxBytes := decodeSplitCase(enc)
		checkSplitChunks(t, segs, accs, stripe, nServers, maxPairs, maxBytes)
	})
}
