package workload

import (
	"testing"

	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

func TestSubarrayWrite(t *testing.T) {
	// 8x8 ints over 2x2 procs: each proc holds 4x4.
	for rank := 0; rank < 4; rank++ {
		ix, iy := rank%2, rank/2
		p := SubarrayWrite(8, 2, 2, ix, iy, 4)
		if p.Bytes() != 4*4*4 {
			t.Errorf("rank %d: bytes = %d, want 64", rank, p.Bytes())
		}
		if len(p.Mem) != 4 {
			t.Errorf("rank %d: %d memory rows, want 4", rank, len(p.Mem))
		}
		if len(p.File) != 1 {
			t.Errorf("rank %d: file must be contiguous, got %v", rank, p.File)
		}
		if p.File[0].Off != int64(rank)*64 {
			t.Errorf("rank %d writes at %d, want %d", rank, p.File[0].Off, rank*64)
		}
	}
	// All ranks' memory rows together tile the full array.
	covered := make(map[int64]bool)
	for rank := 0; rank < 4; rank++ {
		p := SubarrayWrite(8, 2, 2, rank%2, rank/2, 4)
		for _, r := range p.Mem {
			for b := r.Off; b < r.End(); b++ {
				if covered[b] {
					t.Fatalf("byte %d covered twice", b)
				}
				covered[b] = true
			}
		}
	}
	if len(covered) != 8*8*4 {
		t.Errorf("covered %d bytes, want %d", len(covered), 8*8*4)
	}
}

func TestBlockColumnTilesFile(t *testing.T) {
	const n, procs = 16, 4
	covered := make(map[int64]int)
	for rank := 0; rank < procs; rank++ {
		p := BlockColumn(n, procs, rank, 4)
		if len(p.File) != n {
			t.Errorf("rank %d: %d file pieces, want %d", rank, len(p.File), n)
		}
		if p.Bytes() != n*n*4/procs {
			t.Errorf("rank %d bytes = %d", rank, p.Bytes())
		}
		for _, r := range p.File {
			for b := r.Off; b < r.End(); b++ {
				covered[b]++
			}
		}
	}
	if int64(len(covered)) != n*n*4 {
		t.Errorf("file coverage %d, want %d", len(covered), n*n*4)
	}
	for b, c := range covered {
		if c != 1 {
			t.Fatalf("byte %d covered %d times", b, c)
		}
	}
}

// TestPatternsBuildTheirListOnce: the block-column view is displaced where
// the vector constructor built it, and a BTIO dump sizes its run list before
// filling it — one file list per pattern, plus the one-entry memory list —
// when the cache does not hold them.
func TestPatternsBuildTheirListOnce(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { blockColumn(64, 4, 1, 4) }); n > 2 {
		t.Errorf("blockColumn: %.0f allocations, want 2", n)
	}
	s := PaperBTIOSpec()
	if n := testing.AllocsPerRun(10, func() { s.dump(1, 3) }); n > 2 {
		t.Errorf("BTIOSpec.dump: %.0f allocations, want 2", n)
	}
	// One process owns every line of the cube, so its dump is one run.
	if p := (BTIOSpec{Grid: 8, NProcs: 1, Dumps: 1}).Dump(0, 0); len(p.File) != 1 || p.File[0].Len != 8*8*8*CellBytes {
		t.Errorf("single-process dump: %v", p.File)
	}
}

// TestPatternCacheLookupAllocFree: once built, every constructor returns its
// pattern from the cache without allocating, the very lists it returned
// before, capped at their length so an append copies.
func TestPatternCacheLookupAllocFree(t *testing.T) {
	tiles, btio := PaperTileSpec(), PaperBTIOSpec()
	tiles.Overlap = 8
	calls := []func() Pattern{
		func() Pattern { return SubarrayWrite(256, 2, 2, 1, 0, 4) },
		func() Pattern { return BlockColumn(512, 4, 3, 4) },
		func() Pattern { return tiles.Tile(2) },
		func() Pattern { return tiles.TileWithOverlap(2) },
		func() Pattern { return btio.Dump(1, 7) },
	}
	for i, call := range calls {
		first := call()
		if n := testing.AllocsPerRun(20, func() { call() }); n != 0 {
			t.Errorf("call %d: %.1f allocations per cached lookup, want 0", i, n)
		}
		again := call()
		if &again.File[0] != &first.File[0] || &again.Mem[0] != &first.Mem[0] {
			t.Errorf("call %d: a second call built its lists again", i)
		}
		if cap(again.File) != len(again.File) || cap(again.Mem) != len(again.Mem) {
			t.Errorf("call %d: shared lists have room to append into", i)
		}
	}
	if err := VerifyPatternCache(); err != nil {
		t.Error(err)
	}
}

// TestPatternCacheCatchesWrites: under sim.PoisonReleased a cache hit
// re-checks the entry, so a caller that wrote into a shared list fails the
// next lookup, and VerifyPatternCache names the entry.
func TestPatternCacheCatchesWrites(t *testing.T) {
	defer func(was bool) { sim.PoisonReleased = was }(sim.PoisonReleased)
	sim.PoisonReleased = true
	p := BlockColumn(96, 3, 2, 4) // a shape no other test asks for
	p.File[1].Len++
	defer func() { p.File[1].Len-- }()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a lookup after a write into the shared pattern passed")
			}
		}()
		BlockColumn(96, 3, 2, 4)
	}()
	if err := VerifyPatternCache(); err == nil {
		t.Error("VerifyPatternCache found nothing wrong with a written entry")
	}
}

// cachedPatterns reports how many patterns the cache holds.
func cachedPatterns() int {
	flatCache.Lock()
	defer flatCache.Unlock()
	return len(flatCache.m)
}

// TestPatternCacheBounded: past patternCacheBytes the constructors build
// uncached.
func TestPatternCacheBounded(t *testing.T) {
	before := cachedPatterns()
	flatCache.Lock()
	saved := flatCache.bytes
	flatCache.bytes = patternCacheBytes
	flatCache.Unlock()
	defer func() {
		flatCache.Lock()
		flatCache.bytes = saved
		flatCache.Unlock()
	}()
	a, b := BlockColumn(80, 4, 1, 4), BlockColumn(80, 4, 1, 4)
	if &a.File[0] == &b.File[0] || cachedPatterns() != before {
		t.Error("a full cache took another pattern")
	}
}

func TestPaperTileSpec(t *testing.T) {
	s := PaperTileSpec()
	if s.FileBytes() != 2*2*1024*768*3 {
		t.Errorf("FileBytes = %d", s.FileBytes())
	}
	// 9 MB, as the paper states.
	if got := float64(s.FileBytes()) / (1 << 20); got != 9 {
		t.Errorf("file = %.2f MB, want 9", got)
	}
	covered := make(map[int64]bool)
	for rank := 0; rank < 4; rank++ {
		p := s.Tile(rank)
		if len(p.File) != 768 {
			t.Errorf("rank %d: %d runs, want 768 (one per scan line)", rank, len(p.File))
		}
		if p.File[0].Len != 1024*3 {
			t.Errorf("run length = %d, want 3072", p.File[0].Len)
		}
		for _, r := range p.File {
			for b := r.Off; b < r.End(); b += 3 {
				covered[b] = true
			}
		}
	}
	if int64(len(covered)) != s.FileBytes()/3 {
		t.Errorf("tiles do not tile the frame: %d", len(covered))
	}
}

func TestBTIOSpecMatchesTable6Arithmetic(t *testing.T) {
	s := PaperBTIOSpec()
	// 20 dumps x 10 MB = 200 MB solution history.
	if got := float64(s.FileBytes()) / (1 << 20); got != 200 {
		t.Errorf("file = %.1f MB, want 200", got)
	}
	// Per dump per rank: 1024 runs of 2560 bytes.
	p := s.Dump(0, 0)
	if len(p.File) != 1024 {
		t.Errorf("runs = %d, want 1024", len(p.File))
	}
	if p.File[0].Len != 2560 {
		t.Errorf("run length = %d, want 2560", p.File[0].Len)
	}
	// Total write calls in Multiple I/O = runs x dumps x procs = 81920,
	// matching Table 6.
	total := len(p.File) * s.Dumps * s.NProcs
	if total != 81920 {
		t.Errorf("total accesses = %d, want 81920", total)
	}
}

func TestBTIODumpsTileEachDumpRegion(t *testing.T) {
	s := BTIOSpec{Grid: 8, NProcs: 4, Dumps: 2, Steps: 10, StepCompute: 0.1}
	for d := 0; d < 2; d++ {
		covered := make(map[int64]bool)
		for rank := 0; rank < 4; rank++ {
			p := s.Dump(rank, d)
			for _, r := range p.File {
				lo := int64(d) * s.DumpBytes()
				if r.Off < lo || r.End() > lo+s.DumpBytes() {
					t.Fatalf("dump %d rank %d writes outside its region: %v", d, rank, r)
				}
				for b := r.Off; b < r.End(); b += CellBytes {
					if covered[b] {
						t.Fatalf("cell %d covered twice", b)
					}
					covered[b] = true
				}
			}
		}
		if int64(len(covered)) != s.DumpBytes()/CellBytes {
			t.Errorf("dump %d: %d cells covered, want %d", d, len(covered), s.DumpBytes()/CellBytes)
		}
	}
}

func TestPatternsAligned(t *testing.T) {
	pats := []Pattern{
		SubarrayWrite(64, 2, 2, 1, 1, 4),
		BlockColumn(64, 4, 2, 4),
		PaperTileSpec().Tile(3),
		PaperBTIOSpec().Dump(2, 5),
	}
	for i, p := range pats {
		if p.Mem.Total() != p.File.Total() {
			t.Errorf("pattern %d misaligned", i)
		}
		if p.MemSpan() < p.Mem.Total() {
			t.Errorf("pattern %d: span %d < total %d", i, p.MemSpan(), p.Mem.Total())
		}
		// File regions must be disjoint.
		var prev pvfs.OffLen
		for j, r := range p.File {
			if j > 0 && r.Off < prev.End() {
				t.Errorf("pattern %d: overlapping file regions", i)
			}
			prev = r
		}
	}
}

func TestTileOverlap(t *testing.T) {
	s := TileSpec{TilesX: 2, TilesY: 2, PixelsX: 100, PixelsY: 80, Elem: 1, Overlap: 10}
	// Corner tile 0: overlap clamps at display edges, extends right/down.
	p0 := s.TileWithOverlap(0)
	if want := int64((100 + 10) * (80 + 10)); p0.Bytes() != want {
		t.Errorf("tile 0 overlap bytes = %d, want %d", p0.Bytes(), want)
	}
	// Plain tile unaffected.
	if s.Tile(0).Bytes() != 100*80 {
		t.Errorf("plain tile bytes = %d", s.Tile(0).Bytes())
	}
	// Overlapped regions of adjacent tiles intersect.
	p1 := s.TileWithOverlap(1)
	seen := map[int64]bool{}
	for _, r := range p0.File {
		for b := r.Off; b < r.End(); b++ {
			seen[b] = true
		}
	}
	shared := 0
	for _, r := range p1.File {
		for b := r.Off; b < r.End(); b++ {
			if seen[b] {
				shared++
			}
		}
	}
	if shared != 20*90 { // 2*overlap wide, (80+overlap) tall
		t.Errorf("shared bytes = %d, want %d", shared, 20*90)
	}
}

func TestTileOverlapZeroMatchesTile(t *testing.T) {
	s := PaperTileSpec()
	for r := 0; r < 4; r++ {
		a, b := s.Tile(r), s.TileWithOverlap(r)
		if a.Bytes() != b.Bytes() || len(a.File) != len(b.File) {
			t.Errorf("rank %d: zero overlap must equal plain tile", r)
		}
	}
}
