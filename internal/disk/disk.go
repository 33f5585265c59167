// Package disk models a single locally-attached disk (the testbed's Seagate
// ST340016A ATA drive) in virtual time: a seek penalty whenever the head
// moves, a fixed per-command overhead, and a size-dependent transfer
// bandwidth that approaches the sequential maximum for large requests,
//
//	BW(s) = BWmax · s / (s + halfSize),
//
// so small requests are dominated by overhead — the effect Active Data
// Sieving exists to avoid. The device serializes requests FIFO. The disk
// stores no bytes; the file system above it owns the data.
package disk

import (
	"time"

	"pvfsib/internal/metrics"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/trace"
)

// Params is the device timing model.
type Params struct {
	// Seek is the average penalty when the head must move.
	Seek sim.Duration
	// PerOp is the fixed command-processing overhead of each request.
	PerOp sim.Duration
	// MaxReadBW and MaxWriteBW are the asymptotic media bandwidths in
	// bytes per second.
	MaxReadBW  float64
	MaxWriteBW float64
	// HalfSize is the request size at which half the asymptotic
	// bandwidth is reached.
	HalfSize int64
}

// DefaultParams approximates the paper's testbed disk, calibrated so that
// bonnie-style sequential transfers land near Table 3's 25 MB/s write and
// 20 MB/s read. The seek penalty models the *short* seeks of strided access
// within a file region (track-adjacent moves, well under the drive's
// average seek); with a larger value the ADS cost model never prefers
// individual accesses and the paper's Figure 6/7 crossover at array size
// ≈2048 disappears.
func DefaultParams() Params {
	return Params{
		Seek:       500 * time.Microsecond,
		PerOp:      200 * time.Microsecond,
		MaxReadBW:  21 * simnet.MB,
		MaxWriteBW: 26.5 * simnet.MB,
		HalfSize:   4 << 10,
	}
}

// ReadBW returns the effective read bandwidth for a request of size bytes.
func (p Params) ReadBW(size int64) float64 { return p.bw(p.MaxReadBW, size) }

// WriteBW returns the effective write bandwidth for a request of size bytes.
func (p Params) WriteBW(size int64) float64 { return p.bw(p.MaxWriteBW, size) }

func (p Params) bw(max float64, size int64) float64 {
	if size <= 0 {
		return max
	}
	return max * float64(size) / float64(size+p.HalfSize)
}

// ReadTime returns the full device time for one read request.
func (p Params) ReadTime(seek bool, size int64) sim.Duration {
	d := p.PerOp + transfer(float64(size), p.ReadBW(size))
	if seek {
		d += p.Seek
	}
	return d
}

// WriteTime returns the full device time for one write request.
func (p Params) WriteTime(seek bool, size int64) sim.Duration {
	d := p.PerOp + transfer(float64(size), p.WriteBW(size))
	if seek {
		d += p.Seek
	}
	return d
}

func transfer(size, bw float64) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.Duration(size / bw * 1e9)
}

// Counters accumulates device activity.
type Counters struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
	Seeks        int64
	BusyTime     sim.Duration
}

// FaultInjector is the device's hook into the fault plane
// (internal/fault implements it). It returns extra device time for one
// transfer: slowdown events plus internally-retried transient errors. The
// device retries transient errors itself — as real drives do — so the
// operation's outcome is unchanged and no caller signature grows an error.
type FaultInjector interface {
	DiskFault(now sim.Time, node string, read bool, size int64) sim.Duration
}

// Disk is one simulated device.
type Disk struct {
	params Params
	name   string
	res    *sim.Resource
	head   int64 // byte position after the last transfer
	faults FaultInjector
	tracer *trace.Tracer

	mxBusy  metrics.Busy  // device occupancy (utilization per interval)
	mxQueue metrics.Gauge // requests queued on (or holding) the device

	// Counters accumulates this device's activity.
	Counters Counters
}

// SetFaults attaches (or, with nil, detaches) the fault injector.
func (d *Disk) SetFaults(f FaultInjector) { d.faults = f }

// SetMetrics attaches (or, with nil, detaches) the metrics registry. The
// disk samples under its own device name, which must already be
// registered; the device belongs to one server's group, so its series
// stay shard-local. Call while the engine is idle.
func (d *Disk) SetMetrics(mx *metrics.Registry) {
	d.mxBusy = mx.Busy(d.name, "disk.busy")
	d.mxQueue = mx.Gauge(d.name, "disk.queue")
}

// SetTracer attaches (or, with nil, detaches) the span tracer. Without
// one, transfers record nothing and allocate nothing.
func (d *Disk) SetTracer(tr *trace.Tracer) { d.tracer = tr }

// New creates a disk on the engine.
func New(eng *sim.Engine, name string, params Params) *Disk {
	return &Disk{params: params, name: name, res: eng.NewResource(name, 1), head: -1}
}

// Name returns the device name given at New.
func (d *Disk) Name() string { return d.name }

// Params returns the timing model.
func (d *Disk) Params() Params { return d.params }

// Read charges the device time for reading size bytes at offset off.
func (d *Disk) Read(p *sim.Proc, off, size int64) {
	d.xfer(p, off, size, true)
}

// Write charges the device time for writing size bytes at offset off.
func (d *Disk) Write(p *sim.Proc, off, size int64) {
	d.xfer(p, off, size, false)
}

func (d *Disk) xfer(p *sim.Proc, off, size int64, read bool) {
	if size <= 0 {
		return
	}
	qsp := d.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), d.name, "disk.queue", trace.StageQueue)
	d.mxQueue.Add(p.Now(), 1)
	d.res.Acquire(p)
	qsp.End(p.Now())
	kind := "disk.write"
	if read {
		kind = "disk.read"
	}
	sp := d.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), d.name, kind, trace.StageDisk)
	sp.SetBytes(size)
	seek := d.head != off
	var dur sim.Duration
	if read {
		dur = d.params.ReadTime(seek, size)
		d.Counters.ReadOps++
		d.Counters.BytesRead += size
	} else {
		dur = d.params.WriteTime(seek, size)
		d.Counters.WriteOps++
		d.Counters.BytesWritten += size
	}
	if seek {
		d.Counters.Seeks++
		sp.Annotate("seek=1")
	}
	if d.faults != nil {
		dur += d.faults.DiskFault(p.Now(), d.name, read, size)
	}
	d.Counters.BusyTime += dur
	t0 := p.Now()
	p.Sleep(dur)
	d.head = off + size
	d.res.Release()
	d.mxQueue.Add(p.Now(), -1)
	d.mxBusy.AddSpan(t0, p.Now())
	sp.End(p.Now())
}
