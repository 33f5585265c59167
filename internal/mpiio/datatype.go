// Package mpiio is a ROMIO-style MPI-IO layer over the PVFS client library.
// It provides MPI datatype flattening and file views, and the paper's four
// noncontiguous access methods (Section 2.3):
//
//   - Multiple I/O: one contiguous PVFS call per contiguous piece,
//   - Data Sieving: client-side sieving (reads only over PVFS — writes fall
//     back to Multiple I/O because PVFS has no client file locking),
//   - Collective I/O: two-phase I/O with inter-client redistribution,
//   - List I/O: pvfs_read_list/pvfs_write_list, optionally with Active Data
//     Sieving on the servers (the paper's contribution).
//
// Applications select a method per operation, mirroring ROMIO's hint
// mechanism.
package mpiio

import (
	"cmp"
	"fmt"
	"slices"

	"pvfsib/internal/pvfs"
)

// Flat is a flattened datatype: contiguous regions at byte offsets relative
// to the datatype's start, in ascending order.
type Flat []pvfs.OffLen

// Total returns the number of bytes the datatype selects.
func (f Flat) Total() int64 { return pvfs.TotalOffLen(f) }

// Span returns the datatype's extent from offset 0 through its last byte.
func (f Flat) Span() int64 {
	if len(f) == 0 {
		return 0
	}
	return f[len(f)-1].End()
}

// Shift returns the datatype displaced by disp bytes.
func (f Flat) Shift(disp int64) Flat {
	out := make(Flat, len(f))
	for i, r := range f {
		out[i] = pvfs.OffLen{Off: r.Off + disp, Len: r.Len}
	}
	return out
}

// Repeat tiles the datatype count times with the given extent (like an MPI
// resized type used in a file view).
func (f Flat) Repeat(count, extent int64) Flat {
	out := make(Flat, 0, int64(len(f))*count)
	for i := int64(0); i < count; i++ {
		for _, r := range f {
			out = append(out, pvfs.OffLen{Off: r.Off + i*extent, Len: r.Len})
		}
	}
	return out.normalize()
}

// Normalize returns the regions sorted and with adjacent ones merged; the
// receiver is left as it was.
func (f Flat) Normalize() Flat {
	if len(f) == 0 {
		return f
	}
	return slices.Clone(f).normalize()
}

// normalize is Normalize in place, for a list the caller built and owns: it
// sorts the regions — only when they are out of order, which the lists the
// constructors build never are — and merges adjacent ones into the front of
// the same slice.
func (f Flat) normalize() Flat {
	if len(f) == 0 {
		return f
	}
	byOff := func(a, b pvfs.OffLen) int { return cmp.Compare(a.Off, b.Off) }
	if !slices.IsSortedFunc(f, byOff) {
		slices.SortFunc(f, byOff)
	}
	merged := f[:1]
	for _, r := range f[1:] {
		last := &merged[len(merged)-1]
		if r.Off == last.End() {
			last.Len += r.Len
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// Contig describes n contiguous bytes.
func Contig(n int64) Flat {
	if n <= 0 {
		return nil
	}
	return Flat{{Off: 0, Len: n}}
}

// Vector describes count blocks of blocklen bytes separated by stride bytes
// (MPI_Type_vector with byte units).
func Vector(count, blocklen, stride int64) Flat {
	f := make(Flat, 0, count)
	for i := int64(0); i < count; i++ {
		f = append(f, pvfs.OffLen{Off: i * stride, Len: blocklen})
	}
	return f.normalize()
}

// Indexed describes blocks at explicit offsets (MPI_Type_create_hindexed).
func Indexed(offs, lens []int64) (Flat, error) {
	if len(offs) != len(lens) {
		return nil, fmt.Errorf("mpiio: Indexed needs equal-length slices (got %d offsets, %d lengths)", len(offs), len(lens))
	}
	f := make(Flat, 0, len(offs))
	for i := range offs {
		f = append(f, pvfs.OffLen{Off: offs[i], Len: lens[i]})
	}
	return f.normalize(), nil
}

// Subarray2D describes a subRows x subCols block starting at (startRow,
// startCol) of a rows x cols row-major array with elem-byte elements
// (MPI_Type_create_subarray in 2-D).
func Subarray2D(rows, cols, subRows, subCols, startRow, startCol, elem int64) (Flat, error) {
	if startRow+subRows > rows || startCol+subCols > cols {
		return nil, fmt.Errorf("mpiio: subarray %dx%d@(%d,%d) outside %dx%d",
			subRows, subCols, startRow, startCol, rows, cols)
	}
	f := make(Flat, 0, subRows)
	for r := int64(0); r < subRows; r++ {
		f = append(f, pvfs.OffLen{
			Off: ((startRow+r)*cols + startCol) * elem,
			Len: subCols * elem,
		})
	}
	return f.normalize(), nil
}

// Subarray3D is the 3-D analogue with the last dimension fastest-varying.
func Subarray3D(dims, subs, starts [3]int64, elem int64) (Flat, error) {
	for i := 0; i < 3; i++ {
		if starts[i]+subs[i] > dims[i] {
			return nil, fmt.Errorf("mpiio: subarray dim %d: start %d + size %d outside array of %d",
				i, starts[i], subs[i], dims[i])
		}
	}
	f := make(Flat, 0, subs[0]*subs[1])
	for i := int64(0); i < subs[0]; i++ {
		for j := int64(0); j < subs[1]; j++ {
			off := (((starts[0]+i)*dims[1]+(starts[1]+j))*dims[2] + starts[2]) * elem
			f = append(f, pvfs.OffLen{Off: off, Len: subs[2] * elem})
		}
	}
	return f.normalize(), nil
}

// View is an MPI-IO file view: a displacement plus a filetype pattern that
// tiles the file from the displacement onward.
type View struct {
	// Disp is the view's displacement in the file.
	Disp int64
	// Pattern selects bytes within one filetype instance.
	Pattern Flat
	// Extent is the filetype's extent (the tiling period).
	Extent int64
}

// Map translates a contiguous byte range of the view (viewOff, n in "view
// space", counting only selected bytes) into absolute file regions. A view
// whose pattern selects no bytes cannot map anything.
func (v View) Map(viewOff, n int64) (Flat, error) {
	if n <= 0 {
		return nil, nil
	}
	per := v.Pattern.Total()
	if per <= 0 {
		return nil, fmt.Errorf("mpiio: mapping %d bytes through a view with an empty pattern", n)
	}
	var out Flat
	tile := viewOff / per
	within := viewOff % per
	for n > 0 {
		base := v.Disp + tile*v.Extent
		skip := within
		for _, r := range v.Pattern {
			if n <= 0 {
				break
			}
			if skip >= r.Len {
				skip -= r.Len
				continue
			}
			take := r.Len - skip
			if take > n {
				take = n
			}
			out = append(out, pvfs.OffLen{Off: base + r.Off + skip, Len: take})
			n -= take
			skip = 0
		}
		tile++
		within = 0
	}
	return out.normalize(), nil
}
