package bench

import (
	"slices"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// latBW is a cell result carrying one latency (µs) and one bandwidth (MB/s).
type latBW struct{ latUS, bw float64 }

// transport is one row of Table 2.
type transport struct {
	label   string
	measure func(bigSize int64) latBW
}

// table2Rows labels Table 2's transports.
var table2Rows = []string{"VAPI RDMA Write", "VAPI RDMA Read", "MVAPICH (MPI)"}

// table2 reproduces the paper's Table 2: raw network performance — 4-byte
// one-way latency and large-message bandwidth for VAPI RDMA write, VAPI
// RDMA read, and the MPI layer (the paper's MVAPICH). One cell per
// transport.
var table2 = Experiment{
	ID:    "table2",
	Title: "Network performance: one-way latency and large-message bandwidth (Table 2)",
	paper: slices.Concat(
		column("latency_us", "calibration target", table2Rows, 6.0, 12.4, 6.8),
		column("bandwidth_MB_s", "calibration target", table2Rows, 827, 816, 822),
	),
	header: []string{"transport", "latency_us", "bandwidth_MB_s"},
	sweep: func(o RunOpts) []group {
		bigSize := pick[int64](o.Short, 8*MB, 64*MB)
		return each([]transport{{table2Rows[0], table2Write}, {table2Rows[1], table2Read}, {table2Rows[2], table2MPI}},
			func(tr transport) latBW { return tr.measure(bigSize) },
			func(t *Table, tr transport, r latBW) { t.Add(tr.label, r.latUS, r.bw) })
	},
}

// table2Write measures VAPI RDMA write: one-way latency via the delivery
// hook, bandwidth from initiator completion of one large write.
func table2Write(bigSize int64) latBW {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	a := ib.NewHCA(net.AddNode("a"), mem.NewAddrSpace("a"), ib.DefaultParams())
	b := ib.NewHCA(net.AddNode("b"), mem.NewAddrSpace("b"), ib.DefaultParams())
	qa, _ := ib.Connect(a, b)
	src := a.Space().Malloc(bigSize)
	dst := b.Space().Malloc(bigSize)
	var lat, elapsed sim.Duration
	eng.Go("app", func(p *sim.Proc) {
		mrB, err := b.Register(p, mem.Extent{Addr: dst, Len: bigSize})
		sim.Must(err)
		mrA, err := a.Register(p, mem.Extent{Addr: src, Len: bigSize})
		sim.Must(err)
		t0 := p.Now()
		b.OnRDMAWriteApplied = func(mem.Addr, int64) { lat = p.Engine().Now().Sub(t0) }
		sim.Must(qa.RDMAWrite(p, []ib.SGE{{Addr: src, Len: 4}}, dst, mrB.Key))
		p.Sleep(sim.Duration(100) * 1000) // drain
		b.OnRDMAWriteApplied = nil
		t0 = p.Now()
		sim.Must(qa.RDMAWrite(p, []ib.SGE{{Addr: src, Len: bigSize}}, dst, mrB.Key))
		elapsed = p.Now().Sub(t0)
		sim.Must(a.Deregister(p, mrA))
		sim.Must(b.Deregister(p, mrB))
	})
	runAndRetire(eng, a.Space(), b.Space())
	return latBW{float64(lat.Nanoseconds()) / 1000, bw(bigSize, elapsed)}
}

// table2Read measures VAPI RDMA read: latency and bandwidth from initiator
// completion.
func table2Read(bigSize int64) latBW {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	a := ib.NewHCA(net.AddNode("a"), mem.NewAddrSpace("a"), ib.DefaultParams())
	b := ib.NewHCA(net.AddNode("b"), mem.NewAddrSpace("b"), ib.DefaultParams())
	qa, _ := ib.Connect(a, b)
	dst := a.Space().Malloc(bigSize)
	src := b.Space().Malloc(bigSize)
	var lat, elapsed sim.Duration
	eng.Go("app", func(p *sim.Proc) {
		mrB, err := b.Register(p, mem.Extent{Addr: src, Len: bigSize})
		sim.Must(err)
		mrA, err := a.Register(p, mem.Extent{Addr: dst, Len: bigSize})
		sim.Must(err)
		t0 := p.Now()
		sim.Must(qa.RDMARead(p, []ib.SGE{{Addr: dst, Len: 4}}, src, mrB.Key))
		lat = p.Now().Sub(t0)
		t0 = p.Now()
		sim.Must(qa.RDMARead(p, []ib.SGE{{Addr: dst, Len: bigSize}}, src, mrB.Key))
		elapsed = p.Now().Sub(t0)
		sim.Must(a.Deregister(p, mrA))
		sim.Must(b.Deregister(p, mrB))
	})
	runAndRetire(eng, a.Space(), b.Space())
	return latBW{float64(lat.Nanoseconds()) / 1000, bw(bigSize, elapsed)}
}

// table2MPI measures the MPI layer: one-way latency and bandwidth at the
// receiver.
func table2MPI(bigSize int64) latBW {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	a := ib.NewHCA(net.AddNode("a"), mem.NewAddrSpace("a"), ib.DefaultParams())
	b := ib.NewHCA(net.AddNode("b"), mem.NewAddrSpace("b"), ib.DefaultParams())
	w := mpi.NewWorld(eng, []*ib.HCA{a, b}, nil)
	var lat, elapsed sim.Duration
	eng.Go("send", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, []byte{1, 2, 3, 4})
		w.Rank(0).Recv(p, 1) // sync before bandwidth phase
		w.Rank(0).SendOwned(p, 1, make([]byte, bigSize))
	})
	eng.Go("recv", func(p *sim.Proc) {
		w.Rank(1).Recv(p, 0)
		lat = sim.Duration(p.Now())
		t0 := p.Now()
		w.Rank(1).Send(p, 0, nil)
		t0 = p.Now()
		w.Rank(1).Recv(p, 0)
		elapsed = p.Now().Sub(t0)
	})
	runAndRetire(eng, w)
	return latBW{float64(lat.Nanoseconds()) / 1000, bw(bigSize, elapsed)}
}

// runAndRetire drives an engine — the adapters' responders are daemons, so
// it ends when the cell's own processes do — then shuts the engine down so
// its simulated world can be collected; parts are the layers of that world
// that tally host cost.
func runAndRetire(eng *sim.Engine, parts ...coster) {
	sim.Must(eng.Run())
	retire(eng, HostWork{}, append(parts, eng.Telemetry())...)
}
