// Datatypes: an MPI-IO tutorial on the simulated cluster — derived
// datatypes, file views, and individual file pointers. Four ranks store a
// global 2-D matrix of records in a single file three different ways and
// verify they are equivalent:
//
//  1. subarray datatypes (each rank owns a 2-D block),
//  2. an interleaved vector view with file pointers (round-robin records),
//  3. explicit noncontiguous region lists (list I/O).
package main

import (
	"bytes"
	"fmt"
	"log"

	"pvfsib"
)

const (
	rows, cols = 64, 64 // records
	recBytes   = 32
)

func main() {
	cluster := pvfsib.NewCluster(pvfsib.Options{Servers: 4, ComputeNodes: 4})
	defer cluster.Close()
	trace := cluster.EnableTracing()

	err := cluster.RunMPI(func(ctx *pvfsib.Ctx) {
		rank := ctx.Rank.ID()

		// --- 1. Subarray: rank (rx, ry) owns a 32x32 block. ---
		rx, ry := rank%2, rank/2
		sub, err := pvfsib.Subarray2D(rows, cols, rows/2, cols/2,
			int64(ry)*rows/2, int64(rx)*cols/2, recBytes)
		if err != nil {
			log.Fatal(err)
		}
		f1 := pvfsib.OpenFile(ctx, "matrix-subarray")
		buf := fillRecords(ctx, sub.Total(), byte('A'+rank))
		if err := f1.Write(ctx.Proc, pvfsib.ListIOADS,
			[]pvfsib.SGE{{Addr: buf, Len: sub.Total()}}, []pvfsib.OffLen(sub)); err != nil {
			log.Fatal(err)
		}

		// --- 2. Vector view + file pointers: record i belongs to rank
		// i mod 4. Each rank writes through its view sequentially. ---
		f2 := pvfsib.OpenFile(ctx, "matrix-interleaved")
		f2.SetView(pvfsib.View{
			Disp:    int64(rank) * recBytes,
			Pattern: pvfsib.Contig(recBytes),
			Extent:  4 * recBytes,
		})
		mine := int64(rows * cols / 4 * recBytes)
		buf2 := fillRecords(ctx, mine, byte('A'+rank))
		// Write in four chunks through the individual file pointer.
		chunk := mine / 4
		for i := int64(0); i < 4; i++ {
			seg := []pvfsib.SGE{{Addr: buf2 + pvfsib.Addr(i*chunk), Len: chunk}}
			if err := f2.WriteNext(ctx.Proc, pvfsib.ListIO, seg, chunk); err != nil {
				log.Fatal(err)
			}
		}

		// --- 3. Explicit region list, same layout as the view. ---
		f3 := pvfsib.OpenFile(ctx, "matrix-regions")
		var regions []pvfsib.OffLen
		for i := int64(0); i < rows*cols/4; i++ {
			regions = append(regions, pvfsib.OffLen{
				Off: (i*4 + int64(rank)) * recBytes,
				Len: recBytes,
			})
		}
		if err := f3.Write(ctx.Proc, pvfsib.ListIOADS,
			[]pvfsib.SGE{{Addr: buf2, Len: mine}}, regions); err != nil {
			log.Fatal(err)
		}

		ctx.Rank.Barrier(ctx.Proc)

		// Verify: files 2 and 3 must be byte-identical; file 1 holds the
		// same bytes arranged block-wise. Rank 0 checks.
		if rank == 0 {
			size := f2.GetSize(ctx.Proc)
			if size != rows*cols*recBytes {
				log.Fatalf("interleaved file size %d, want %d", size, rows*cols*recBytes)
			}
			a := readAll(ctx, f2, size)
			b := readAll(ctx, f3, size)
			if !bytes.Equal(a, b) {
				log.Fatal("view-written and region-written files differ")
			}
			fmt.Printf("verified: view and region layouts identical (%d bytes)\n", size)
			fmt.Printf("subarray file size: %d\n", f1.GetSize(ctx.Proc))
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nlast trace spans:")
	spans := trace.Spans()
	for _, sp := range spans[max(0, len(spans)-5):] {
		fmt.Printf("  %8.1fus %-4s %-12s %6dB %s\n",
			float64(sp.Start)/1000, sp.Node, sp.Kind, sp.Bytes, sp.Attrs)
	}
}

func fillRecords(ctx *pvfsib.Ctx, n int64, tag byte) pvfsib.Addr {
	addr := ctx.Malloc(n)
	data := make([]byte, n)
	for i := range data {
		data[i] = tag
	}
	if err := ctx.WriteMem(addr, data); err != nil {
		log.Fatal(err)
	}
	return addr
}

func readAll(ctx *pvfsib.Ctx, f *pvfsib.File, n int64) []byte {
	dst := ctx.Malloc(n)
	if err := f.Read(ctx.Proc, pvfsib.ListIO,
		[]pvfsib.SGE{{Addr: dst, Len: n}}, []pvfsib.OffLen{{Off: 0, Len: n}}); err != nil {
		log.Fatal(err)
	}
	out, err := ctx.ReadMem(dst, n)
	if err != nil {
		log.Fatal(err)
	}
	return out
}
