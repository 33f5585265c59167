package workload

import (
	"fmt"
	"slices"
	"sync"

	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// The flatten cache: every constructor looks its arguments up here and
// builds only on a miss, so a benchmark round that asks for the same access
// shape every time allocates nothing for it. Entries are shared by every
// caller in the process — parallel cells and every shard's worker alike —
// so a pattern's lists are read-only: their capacity is their length, so an
// append copies instead of writing into the entry, and under
// sim.PoisonReleased a hit re-checks the entry's checksum and fails if a
// caller wrote into it. Past patternCacheBytes of entries the constructors
// build uncached, as if there were no cache.

// patternCacheBytes bounds the region lists the cache holds: the paper's
// BTIO history (80 dumps of 1 024 runs) and every block-column view of
// Figures 5-7 fit many times over.
const patternCacheBytes = 16 << 20

// flatKind says which constructor an entry is from.
type flatKind uint8

const (
	kindSubarray flatKind = iota
	kindBlockColumn
	kindTile
	kindDump
)

// flatKey names one constructor call: the constructor and its arguments in
// its own order. It is comparable, so a lookup hashes it in place.
type flatKey struct {
	kind flatKind
	args [7]int64
}

// build runs the constructor the key names, uncached.
func (k flatKey) build() Pattern {
	a := k.args
	switch k.kind {
	case kindSubarray:
		return subarrayWrite(a[0], int(a[1]), int(a[2]), int(a[3]), int(a[4]), a[5])
	case kindBlockColumn:
		return blockColumn(a[0], int(a[1]), int(a[2]), a[3])
	case kindTile:
		s := TileSpec{TilesX: int(a[0]), TilesY: int(a[1]), PixelsX: a[2], PixelsY: a[3], Elem: a[4]}
		return s.tile(int(a[5]), a[6])
	case kindDump:
		return BTIOSpec{Grid: a[0], NProcs: int(a[1])}.dump(int(a[2]), int(a[3]))
	}
	sim.Failf("workload: unknown pattern kind %d", k.kind)
	return Pattern{}
}

type flatEntry struct {
	pat Pattern
	sum uint64
}

var flatCache struct {
	sync.Mutex
	m     map[flatKey]flatEntry
	bytes int64
}

// cached returns the pattern k names, from the cache if it holds it.
func cached(k flatKey) Pattern {
	flatCache.Lock()
	e, ok := flatCache.m[k]
	flatCache.Unlock()
	if ok {
		if sim.PoisonReleased && e.pat.checksum() != e.sum {
			sim.Failf("workload: a caller wrote into the shared %s", k)
		}
		return e.pat
	}
	p := k.build()
	p.Mem, p.File = p.Mem[:len(p.Mem):len(p.Mem)], p.File[:len(p.File):len(p.File)]
	size := regionBytes * int64(len(p.Mem)+len(p.File))
	flatCache.Lock()
	defer flatCache.Unlock()
	if e, ok := flatCache.m[k]; ok {
		return e.pat // another caller built it meanwhile; share the first
	}
	if flatCache.bytes+size > patternCacheBytes {
		return p
	}
	if flatCache.m == nil {
		flatCache.m = make(map[flatKey]flatEntry)
	}
	flatCache.m[k] = flatEntry{pat: p, sum: p.checksum()}
	flatCache.bytes += size
	return p
}

// regionBytes is what one region of a list holds.
const regionBytes = 16

// checksum hashes both region lists (FNV-1a over every offset and length).
func (p Pattern) checksum() uint64 {
	h := uint64(14695981039346656037)
	for _, l := range [2][]pvfs.OffLen{p.Mem, p.File} {
		for _, r := range l {
			h = (h ^ uint64(r.Off)) * 1099511628211
			h = (h ^ uint64(r.Len)) * 1099511628211
		}
		h = (h ^ uint64(len(l))) * 1099511628211
	}
	return h
}

func (k flatKey) String() string {
	name := [...]string{kindSubarray: "SubarrayWrite", kindBlockColumn: "BlockColumn", kindTile: "TileSpec.tile", kindDump: "BTIOSpec.Dump"}[k.kind]
	return fmt.Sprintf("%s%v", name, k.args)
}

// VerifyPatternCache compares every cached pattern with a fresh uncached
// build and reports the first that differs: a caller that wrote into a
// shared list.
func VerifyPatternCache() error {
	flatCache.Lock()
	defer flatCache.Unlock()
	keys := make([]flatKey, 0, len(flatCache.m))
	for k := range flatCache.m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b flatKey) int {
		if a.kind != b.kind {
			return int(a.kind) - int(b.kind)
		}
		return slices.Compare(a.args[:], b.args[:])
	})
	for _, k := range keys {
		got, want := flatCache.m[k].pat, k.build()
		if !slices.Equal(got.Mem, want.Mem) || !slices.Equal(got.File, want.File) {
			return fmt.Errorf("workload: the shared %s differs from a fresh build", k)
		}
	}
	return nil
}
