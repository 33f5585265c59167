package bench

import (
	"fmt"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/ogr"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// fig3 reproduces the paper's Figure 3: bandwidth of the noncontiguous
// transfer schemes when sending one process's subarray of an N x N integer
// array (block-distributed over 4 processes, so the subarray is N/2 x N/2
// with row stride 4N bytes) from a compute node to an I/O node. One cell
// per array size.
//
// Schemes:
//
//	contiguous,no reg — one contiguous pre-registered buffer (upper bound)
//	multiple,no reg   — one RDMA write per row, registrations all cached
//	pack,no reg       — copy rows into a pre-registered staging buffer
//	pack,reg          — ditto, but register/deregister the staging buffer
//	gather,mult reg   — register every row separately, one gather write
//	gather,one reg    — Optimistic Group Registration, one gather write
var fig3 = Experiment{
	ID:    "fig3",
	Title: "Noncontiguous transfer schemes (Figure 3)",
	table: "Noncontiguous transfer schemes, subarray write bandwidth (MB/s)",
	header: []string{"array", "contig_noreg", "multiple_noreg",
		"pack_noreg", "pack_reg", "gather_multreg", "gather_onereg"},
	notes: []string{"paper shape: pack wins small arrays; gather,one reg approaches contiguous for large; gather,mult reg pays per-row registration"},
	sweep: func(o RunOpts) []group {
		return each(pick(o.Short, []int64{256, 1024}, []int64{256, 512, 1024, 2048, 4096}),
			func(n int64) map[string]float64 { return fig3RowOn(n, ib.DefaultParams(), simnet.DefaultParams()) },
			func(t *Table, n int64, r map[string]float64) {
				t.Add(fmt.Sprintf("%dx%d", n, n),
					r["contig"], r["multiple"], r["packnoreg"], r["packreg"], r["gathermult"], r["gatherone"])
			})
	},
}

// fig3RowOn measures every scheme for one array size on the given HCA and
// fabric models (the SGE ablation varies the first, the network-generation
// ablation the second) and returns bandwidths by scheme.
func fig3RowOn(n int64, params ib.Params, netParams simnet.Params) map[string]float64 {
	const elem = 4
	rows := n / 2
	rowLen := (n / 2) * elem
	stride := n * elem
	total := rows * rowLen

	eng := sim.NewEngine()
	net := simnet.New(eng, netParams)
	cli := ib.NewHCA(net.AddNode("cn"), mem.NewAddrSpace("cn"), params)
	srv := ib.NewHCA(net.AddNode("io"), mem.NewAddrSpace("io"), params)
	qp, _ := ib.Connect(cli, srv)

	// Server staging region, statically registered.
	dstAddr := srv.Space().Malloc(total)
	dstMR, err := srv.RegisterStatic(mem.Extent{Addr: dstAddr, Len: total})
	sim.Must(err)

	// The client's full array; the subarray rows live inside it.
	array := cli.Space().Malloc(n * n * elem)
	var rowSegs []ib.SGE
	var rowExts []mem.Extent
	for i := int64(0); i < rows; i++ {
		seg := ib.SGE{Addr: array + mem.Addr(i*stride), Len: rowLen}
		rowSegs = append(rowSegs, seg)
		rowExts = append(rowExts, seg.Extent())
	}
	// A separate contiguous source for the upper bound, and a staging
	// buffer for the pack schemes.
	contig := cli.Space().Malloc(total)
	staging := cli.Space().Malloc(total)

	out := make(map[string]float64)
	eng.Go("app", func(p *sim.Proc) {
		time := func(fn func()) sim.Duration {
			t0 := p.Now()
			fn()
			return p.Now().Sub(t0)
		}
		// contiguous, no reg.
		_, err := cli.RegisterStatic(mem.Extent{Addr: contig, Len: total})
		sim.Must(err)
		out["contig"] = bw(total, time(func() {
			sim.Must(qp.RDMAWrite(p, []ib.SGE{{Addr: contig, Len: total}}, dstAddr, dstMR.Key))
		}))

		// multiple, no reg: whole array statically registered (perfect
		// registration cache), one write per row.
		_, err = cli.RegisterStatic(mem.Extent{Addr: array, Len: n * n * elem})
		sim.Must(err)
		out["multiple"] = bw(total, time(func() {
			off := int64(0)
			for _, seg := range rowSegs {
				sim.Must(qp.RDMAWrite(p, []ib.SGE{seg}, dstAddr+mem.Addr(off), dstMR.Key))
				off += seg.Len
			}
		}))

		// pack, no reg: staging buffer statically registered.
		_, err = cli.RegisterStatic(mem.Extent{Addr: staging, Len: total})
		sim.Must(err)
		pack := func() {
			off := int64(0)
			for _, seg := range rowSegs {
				b, err := cli.Space().Read(seg.Addr, seg.Len)
				sim.Must(err)
				sim.Must(cli.Space().Write(staging+mem.Addr(off), b))
				off += seg.Len
			}
			p.Sleep(params.MemcpyTime(total))
		}
		out["packnoreg"] = bw(total, time(func() {
			pack()
			sim.Must(qp.RDMAWrite(p, []ib.SGE{{Addr: staging, Len: total}}, dstAddr, dstMR.Key))
		}))

		// pack, reg: register and deregister a fresh staging buffer.
		fresh := cli.Space().Malloc(total)
		out["packreg"] = bw(total, time(func() {
			mr, err := cli.Register(p, mem.Extent{Addr: fresh, Len: total})
			sim.Must(err)
			off := int64(0)
			for _, seg := range rowSegs {
				b, rerr := cli.Space().Read(seg.Addr, seg.Len)
				sim.Must(rerr)
				sim.Must(cli.Space().Write(fresh+mem.Addr(off), b))
				off += seg.Len
			}
			p.Sleep(params.MemcpyTime(total))
			sim.Must(qp.RDMAWrite(p, []ib.SGE{{Addr: fresh, Len: total}}, dstAddr, dstMR.Key))
			sim.Must(cli.Deregister(p, mr))
		}))

		// For the registration-sensitive gather schemes the static
		// whole-array MR must not linger (it would satisfy coverage
		// checks but also hide nothing — ib validates against any MR).
		// Costs are what matter: the schemes explicitly register.
		// gather, multiple reg.
		out["gathermult"] = bw(total, time(func() {
			var mrs []*ib.MR
			for _, e := range rowExts {
				mr, err := cli.Register(p, e)
				sim.Must(err)
				mrs = append(mrs, mr)
			}
			sim.Must(qp.RDMAWrite(p, rowSegs, dstAddr, dstMR.Key))
			for _, mr := range mrs {
				sim.Must(cli.Deregister(p, mr))
			}
		}))

		// gather, one reg (OGR).
		out["gatherone"] = bw(total, time(func() {
			cfg := ogr.DefaultConfig()
			cfg.Params = params
			res, err := ogr.RegisterBuffers(p, ogr.Direct{HCA: cli}, cli.Space(), rowExts, cfg)
			sim.Must(err)
			sim.Must(qp.RDMAWrite(p, rowSegs, dstAddr, dstMR.Key))
			sim.Must(ogr.Release(p, ogr.Direct{HCA: cli}, res))
		}))
	})
	runTolerant(eng, cli.Space(), srv.Space())
	return out
}
