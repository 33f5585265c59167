package ogr

import (
	"slices"
	"testing"

	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
)

func init() { sim.PoisonReleased = true }

// fuzzScratch is the one Scratch every FuzzGroupRegions input registers in,
// so each meets the lists the inputs before it left behind, poisoned.
var fuzzScratch Scratch

// FuzzGroupRegions decodes an arbitrary byte string into a buffer list
// (alternating hole and length page counts, the shapes Table 4 exercises; a
// hole byte with its top bit set steps back instead, so buffers overlap or
// repeat), carves it out of one allocation with every other pair of
// neighbours swapped, and registers it in the shared Scratch. The groups it planned must equal
// refPlanGroups' element for element, every buffer must lie in a region the
// result holds, and disabling grouping degenerates to one group per buffer.
// The result is released (and so poisoned) before the next input.
func FuzzGroupRegions(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 0, 4}, false, false)        // one dense run
	f.Add([]byte{0, 1, 200, 1, 200, 1}, false, false)    // far-apart buffers
	f.Add([]byte{0, 2, 1, 2, 30, 2, 1, 2}, false, false) // small holes worth swallowing
	f.Add([]byte{0, 3, 5, 3}, true, false)
	f.Add([]byte{9, 2, 40, 1, 3, 5, 0, 1}, false, true)
	f.Add([]byte{0, 4, 0x82, 1, 0x80, 3, 5, 2}, false, false) // overlapping and repeated buffers
	f.Fuzz(func(t *testing.T, data []byte, disableGrouping, wholeSpan bool) {
		var bufs []mem.Extent
		var addr, end int64
		for i := 0; i+1 < len(data) && len(bufs) < 128; i += 2 {
			holePages := int64(data[i] % 64)
			lenPages := int64(data[i+1]%16) + 1
			if data[i]&0x80 != 0 {
				addr -= min(addr, holePages*mem.PageSize)
			} else {
				addr += holePages * mem.PageSize
			}
			bufs = append(bufs, mem.Extent{Addr: mem.Addr(addr), Len: lenPages * mem.PageSize})
			addr += lenPages * mem.PageSize
			end = max(end, addr)
		}
		if len(bufs) == 0 {
			return
		}
		for i := 1; i < len(bufs); i += 4 {
			bufs[i-1], bufs[i] = bufs[i], bufs[i-1]
		}
		cfg := DefaultConfig()
		cfg.DisableGrouping, cfg.WholeSpan = disableGrouping, wholeSpan

		eng, h := newHCA(t)
		base := h.Space().Malloc(end)
		for i := range bufs {
			bufs[i].Addr += base
		}
		eng.Go("fuzz", func(p *sim.Proc) {
			res, err := fuzzScratch.RegisterBuffers(p, Direct{h}, h.Space(), bufs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { sim.Must(Release(p, Direct{h}, res)) }()
			got, want := fuzzScratch.groups, refPlanGroups(bufs, cfg)
			same := slices.EqualFunc(got, want, func(a, b group) bool {
				return a.span == b.span && slices.Equal(a.bufs, b.bufs)
			})
			if !same {
				t.Fatalf("groups differ from the reference:\n%+v\n%+v", got, want)
			}
			if disableGrouping && !wholeSpan && len(got) != len(bufs) {
				t.Fatalf("grouping disabled but %d buffers became %d groups", len(bufs), len(got))
			}
			if res.Registrations != len(want) || len(res.MRs) != len(want) {
				t.Fatalf("%d groups, %d registrations and %d regions", len(want), res.Registrations, len(res.MRs))
			}
			for _, b := range bufs {
				if !covered(b, res.MRs) {
					t.Fatalf("buffer %v not covered by %d regions", b, len(res.MRs))
				}
			}
		})
		run(t, eng)
		if n := h.NumMRs(); n != 0 {
			t.Fatalf("%d regions still registered after Release", n)
		}
	})
}
