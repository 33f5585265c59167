package ogr

import (
	"cmp"
	"slices"

	"pvfsib/internal/mem"
)

// refPlanGroups is planGroups as it was before it planned in a Scratch,
// verbatim but for its name and the WholeSpan span, which ended at the end
// of the buffer that starts last until FuzzGroupRegions overlapped a longer
// one: the fuzzer holds the scratch planner to it group by group.
func refPlanGroups(bufs []mem.Extent, cfg Config) []group {
	sorted := make([]mem.Extent, len(bufs))
	copy(sorted, bufs)
	slices.SortFunc(sorted, func(a, b mem.Extent) int { return cmp.Compare(a.Addr, b.Addr) })

	if cfg.WholeSpan {
		// The buffer that starts last need not end last.
		span := sorted[0]
		for _, b := range sorted[1:] {
			span.Len = max(span.Len, int64(b.End()-span.Addr))
		}
		return []group{{span: span, bufs: sorted}}
	}

	// Cost of one extra operation vs. cost per extra page registered.
	perOp := cfg.Params.RegPerOp + cfg.Params.DeregPerOp
	perPage := cfg.Params.RegPerPage + cfg.Params.DeregPerPage
	var maxHolePages int64
	if perPage > 0 {
		maxHolePages = int64(perOp / perPage)
	}
	if cfg.DisableGrouping {
		maxHolePages = -1
	}

	var groups []group
	cur := group{span: sorted[0], bufs: sorted[:1]}
	for _, b := range sorted[1:] {
		holePages := int64(0)
		if b.Addr > cur.span.End() {
			hole := mem.Extent{Addr: cur.span.End(), Len: int64(b.Addr - cur.span.End())}
			holePages = hole.Pages()
		}
		if holePages <= maxHolePages {
			// Merge: extend the span to cover b.
			if b.End() > cur.span.End() {
				cur.span.Len = int64(b.End() - cur.span.Addr)
			}
			cur.bufs = append(cur.bufs, b)
			continue
		}
		groups = append(groups, cur)
		cur = group{span: b, bufs: []mem.Extent{b}}
	}
	groups = append(groups, cur)
	return groups
}
