// Package workload generates the access patterns of the paper's evaluation
// section: 2-D block-distributed subarrays (Figure 3, Table 4), the
// one-dimensional block-column file view (Figures 5-7), mpi-tile-io tiled
// display access (Figures 8-9), and the NAS BTIO class A pattern
// (Tables 5-6). Patterns are pure data — pairs of flattened memory and file
// region lists describing the same bytes — so benchmarks and examples can
// materialize them in any client's address space.
//
// Each pattern is flattened once per process, as ROMIO flattens a committed
// datatype once: the constructors keep what they built in a cache keyed by
// their arguments and hand the same lists to every later call, so callers
// must treat a pattern's lists as read-only (see cache.go).
package workload

import (
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// Pattern pairs a memory layout (offsets relative to a buffer base) with
// absolute file regions; both streams carry the same bytes in the same
// order.
type Pattern struct {
	Mem  mpiio.Flat
	File mpiio.Flat
}

// Bytes returns the pattern's transfer size.
func (p Pattern) Bytes() int64 { return p.File.Total() }

// MemSpan returns the buffer size needed to hold the memory layout.
func (p Pattern) MemSpan() int64 { return p.Mem.Span() }

func (p Pattern) check() Pattern {
	if p.Mem.Total() != p.File.Total() {
		sim.Failf("workload: memory bytes %d != file bytes %d", p.Mem.Total(), p.File.Total())
	}
	return p
}

// SubarrayWrite is the Figure 3 / Table 4 scenario: an n x n array of
// elem-byte elements block-distributed over px x py processes; process
// (ix, iy) holds the subarray rows in its copy of the full array and writes
// them contiguously to its own non-overlapping file location.
//
// Memory is noncontiguous (subarray rows inside the full array); the file
// is contiguous.
func SubarrayWrite(n int64, px, py, ix, iy int, elem int64) Pattern {
	return cached(flatKey{kind: kindSubarray, args: [7]int64{n, int64(px), int64(py), int64(ix), int64(iy), elem}})
}

func subarrayWrite(n int64, px, py, ix, iy int, elem int64) Pattern {
	subRows, subCols := n/int64(py), n/int64(px)
	// The block decomposition keeps every subarray inside the array, so the
	// constructor cannot fail for any (px, py, ix, iy) grid position.
	mem, err := mpiio.Subarray2D(n, n, subRows, subCols, int64(iy)*subRows, int64(ix)*subCols, elem)
	sim.Must(err)
	rank := int64(iy*px + ix)
	bytes := subRows * subCols * elem
	return Pattern{
		Mem:  mem,
		File: mpiio.Contig(bytes).Shift(rank * bytes),
	}.check()
}

// BlockColumn is the Figures 5-7 scenario: an n x n array of elem-byte
// elements stored row-major in the file, distributed in block columns over
// nprocs processes; each process accesses one block column (1 unit out of
// every nprocs in each row). Memory is contiguous; the file is strided.
func BlockColumn(n int64, nprocs, rank int, elem int64) Pattern {
	return cached(flatKey{kind: kindBlockColumn, args: [7]int64{n, int64(nprocs), int64(rank), elem}})
}

func blockColumn(n int64, nprocs, rank int, elem int64) Pattern {
	colw := n / int64(nprocs) * elem
	rowBytes := n * elem
	// The vector is this call's own, so it is displaced where it stands.
	file := mpiio.Vector(n, colw, rowBytes)
	for i := range file {
		file[i].Off += int64(rank) * colw
	}
	return Pattern{
		Mem:  mpiio.Contig(n * colw),
		File: file,
	}.check()
}

// TileSpec describes an mpi-tile-io dataset: a display of tileX x tileY
// tiles, each sized pixelX x pixelY with elem bytes per pixel. Overlap, if
// nonzero, extends each tile's *read* region by that many pixels into its
// neighbours on every side (mpi-tile-io's overlap_x/overlap_y options),
// modelling compositing filters that need boundary pixels.
type TileSpec struct {
	TilesX, TilesY   int
	PixelsX, PixelsY int64
	Elem             int64
	Overlap          int64
}

// PaperTileSpec is the paper's Section 6.6 configuration: a 2x2 display of
// 1024x768 tiles with 24-bit pixels — a 9 MB file.
func PaperTileSpec() TileSpec {
	return TileSpec{TilesX: 2, TilesY: 2, PixelsX: 1024, PixelsY: 768, Elem: 3}
}

// FileBytes returns the dataset size.
func (s TileSpec) FileBytes() int64 {
	return int64(s.TilesX) * int64(s.TilesY) * s.PixelsX * s.PixelsY * s.Elem
}

// Tile returns the access pattern of the rank rendering one tile: the file
// is noncontiguous (one row-run per display scan line crossing the tile),
// memory is contiguous — exactly the mpi-tile-io shape. The tile excludes
// the overlap (write pattern).
func (s TileSpec) Tile(rank int) Pattern {
	return cached(s.key(rank, 0))
}

// TileWithOverlap returns the rank's read pattern including the Overlap
// border clamped to the display edges.
func (s TileSpec) TileWithOverlap(rank int) Pattern {
	return cached(s.key(rank, s.Overlap))
}

func (s TileSpec) key(rank int, overlap int64) flatKey {
	return flatKey{kind: kindTile, args: [7]int64{int64(s.TilesX), int64(s.TilesY), s.PixelsX, s.PixelsY, s.Elem, int64(rank), overlap}}
}

func (s TileSpec) tile(rank int, overlap int64) Pattern {
	tx, ty := rank%s.TilesX, rank/s.TilesX
	if ty >= s.TilesY {
		sim.Failf("workload: tile rank out of range")
	}
	frameCols := int64(s.TilesX) * s.PixelsX
	frameRows := int64(s.TilesY) * s.PixelsY
	clamp := func(v, lo, hi int64) int64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	colLo := clamp(int64(tx)*s.PixelsX-overlap, 0, frameCols)
	colHi := clamp(int64(tx+1)*s.PixelsX+overlap, 0, frameCols)
	rowLo := clamp(int64(ty)*s.PixelsY-overlap, 0, frameRows)
	rowHi := clamp(int64(ty+1)*s.PixelsY+overlap, 0, frameRows)
	// Overlap borders are clamped to the display edges above, so the
	// subarray always lies inside the frame.
	file, err := mpiio.Subarray2D(frameRows, frameCols,
		rowHi-rowLo, colHi-colLo, rowLo, colLo, s.Elem)
	sim.Must(err)
	return Pattern{
		Mem:  mpiio.Contig((colHi - colLo) * (rowHi - rowLo) * s.Elem),
		File: file,
	}.check()
}

// BTIOSpec describes a NAS BTIO run: a grid³ cube of cells, each holding 5
// doubles (40 bytes), distributed over nprocs processes as square blocks in
// the (j,k) plane with full i-lines, dumped every few steps.
type BTIOSpec struct {
	Grid   int64 // 64 for class A
	NProcs int   // must be a perfect square
	Dumps  int   // solution dumps over the run
	Steps  int   // total time steps
	// StepCompute is the per-step computation time in seconds, calibrated
	// so the no-I/O class A run matches the paper's 165.6 s.
	StepCompute float64
}

// PaperBTIOSpec reproduces the paper's class A configuration: the counters
// in Table 6 (81920 = 1024 runs x 20 dumps x 4 processes) imply 20 solution
// dumps and a 200 MB solution history.
func PaperBTIOSpec() BTIOSpec {
	return BTIOSpec{Grid: 64, NProcs: 4, Dumps: 20, Steps: 200, StepCompute: 165.6 / 200}
}

// CellBytes is the solution-vector size per grid cell (5 doubles).
const CellBytes = 40

// DumpBytes returns the bytes one dump appends to the file.
func (s BTIOSpec) DumpBytes() int64 { return s.Grid * s.Grid * s.Grid * CellBytes }

// FileBytes returns the total solution-history size.
func (s BTIOSpec) FileBytes() int64 { return int64(s.Dumps) * s.DumpBytes() }

// Dump returns rank's pattern for the d-th solution dump: full i-line runs
// of Grid x CellBytes contiguous bytes, one per (j,k) cell the rank owns.
// The distribution is cyclic in j and blocked in k, which reproduces the
// fragmentation signature of BT's diagonal multipartition as measured in
// the paper's Table 6: with 4 processes on the class A grid, every rank
// holds 1024 noncontiguous runs of 2560 bytes per dump (adjacent j lines
// belong to different ranks, so runs never merge).
func (s BTIOSpec) Dump(rank, d int) Pattern {
	return cached(flatKey{kind: kindDump, args: [7]int64{s.Grid, int64(s.NProcs), int64(rank), int64(d)}})
}

func (s BTIOSpec) dump(rank, d int) Pattern {
	side := isqrt(s.NProcs)
	if side*side != s.NProcs {
		sim.Failf("workload: BTIO needs a square process count")
	}
	pj, pk := int64(rank%side), int64(rank/side)
	bk := s.Grid / int64(side)
	klo := pk * bk
	base := int64(d) * s.DumpBytes()
	// Runs come out in ascending file order, so normalising them is merging
	// each into its predecessor when the two touch (one process owns every
	// line, and the dump is one run).
	file := make(mpiio.Flat, 0, bk*((s.Grid-pj+int64(side)-1)/int64(side)))
	runLen := s.Grid * CellBytes
	for k := klo; k < klo+bk; k++ {
		for j := pj; j < s.Grid; j += int64(side) {
			off := base + ((k*s.Grid)+j)*s.Grid*CellBytes
			if n := len(file) - 1; n >= 0 && file[n].End() == off {
				file[n].Len += runLen
				continue
			}
			file = append(file, pvfs.OffLen{Off: off, Len: runLen})
		}
	}
	return Pattern{
		Mem:  mpiio.Contig(file.Total()),
		File: file,
	}.check()
}

func isqrt(n int) int {
	for i := 0; i*i <= n; i++ {
		if i*i == n {
			return i
		}
	}
	sim.Failf("workload: not a perfect square")
	return 0
}
