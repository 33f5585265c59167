// Package ib simulates an InfiniBand HCA at the verbs level: protection
// domains are implicit, memory regions must be registered before any data
// movement, queue pairs provide channel semantics (send/receive) and memory
// semantics (RDMA read/write), and RDMA work requests carry scatter/gather
// lists of up to MaxSGE entries.
//
// Every cost constant is taken from the paper's testbed measurements:
//
//   - registration: 0.77 µs per page + 7.42 µs per operation,
//   - deregistration: 0.23 µs per page + 1.10 µs per operation,
//   - RDMA write latency 6.0 µs, RDMA read latency 12.4 µs (Table 2),
//   - link bandwidth 827 MB/s (Table 2),
//   - host memory copy bandwidth 1300 MB/s (Section 3.2).
//
// Real payload bytes move between the simulated address spaces of the two
// nodes, so data integrity through gather/scatter paths is testable.
package ib

import (
	"time"

	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// HardMaxSGE is the InfiniBand hardware cap on scatter/gather entries per
// work request (Section 4.1) and the default Params.MaxSGE. The QP transfer
// methods split every list at Params.MaxSGE, which the SGE ablation raises
// past the cap on purpose.
const HardMaxSGE = 64

// Params holds the HCA timing and capacity model.
type Params struct {
	// RegPerPage and RegPerOp model registration cost T = a*pages + b.
	RegPerPage sim.Duration
	RegPerOp   sim.Duration
	// DeregPerPage and DeregPerOp model deregistration the same way.
	DeregPerPage sim.Duration
	DeregPerOp   sim.Duration

	// MaxSGE is the scatter/gather limit per work request (64 in
	// InfiniBand, per Section 4.1).
	MaxSGE int

	// WROverhead is the per-work-request initiator cost (doorbell ring
	// plus completion processing), charged after wire serialization.
	WROverhead sim.Duration
	// PerSGE is the per-segment DMA setup cost within a work request.
	PerSGE sim.Duration
	// UnalignedPenalty is added per SGE whose address is not 64-byte
	// aligned (Section 4.1, "Buffer alignment").
	UnalignedPenalty sim.Duration
	// ReadTurnaround is the responder-side cost of an RDMA read.
	ReadTurnaround sim.Duration

	// MemcpyBandwidth is host memory copy bandwidth in bytes/second,
	// used for pack/unpack staging copies.
	MemcpyBandwidth float64

	// QPResetLatency is the cost of recovering a queue pair from the
	// error state (ERR→RESET→RTS plus connection re-establishment).
	QPResetLatency sim.Duration
	// WRTimeout bounds the wait for an RDMA read response when a fault
	// plane is attached; without one the wait is unbounded (and safe).
	WRTimeout sim.Duration

	// MaxPinnedBytes and MaxMRs bound total registered memory; exceeding
	// either makes Register fail, modeling registration thrashing limits.
	MaxPinnedBytes int64
	MaxMRs         int
}

// DefaultParams returns the paper's testbed constants.
func DefaultParams() Params {
	return Params{
		RegPerPage:       770 * time.Nanosecond,
		RegPerOp:         7420 * time.Nanosecond,
		DeregPerPage:     230 * time.Nanosecond,
		DeregPerOp:       1100 * time.Nanosecond,
		MaxSGE:           HardMaxSGE,
		WROverhead:       2 * time.Microsecond,
		PerSGE:           100 * time.Nanosecond,
		UnalignedPenalty: 200 * time.Nanosecond,
		ReadTurnaround:   300 * time.Nanosecond,
		MemcpyBandwidth:  1300 * simnet.MB,
		QPResetLatency:   25 * time.Microsecond,
		WRTimeout:        500 * time.Microsecond,
		MaxPinnedBytes:   1 << 30, // 1 GiB of pinnable memory
		MaxMRs:           64 << 10,
	}
}

// RegCost returns the time to register pages pages.
func (p Params) RegCost(pages int64) sim.Duration {
	return time.Duration(pages)*p.RegPerPage + p.RegPerOp
}

// DeregCost returns the time to deregister pages pages.
func (p Params) DeregCost(pages int64) sim.Duration {
	return time.Duration(pages)*p.DeregPerPage + p.DeregPerOp
}

// MemcpyTime returns the host copy time for size bytes.
func (p Params) MemcpyTime(size int64) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.Duration(float64(size) / p.MemcpyBandwidth * 1e9)
}

// Counters accumulates per-HCA operation counts. Table 4 and Table 6 of the
// paper report these directly.
type Counters struct {
	Registrations   int64 // successful MR registrations
	RegFailures     int64 // registrations rejected (holes or limits)
	Deregistrations int64
	RegCacheHits    int64 // lookups satisfied by the pin-down cache
	RegCacheMisses  int64
	SendMsgs        int64 // channel-semantics messages sent
	RDMAWrites      int64 // RDMA write work requests
	RDMAReads       int64 // RDMA read work requests
	BytesOut        int64 // payload bytes transmitted (all semantics)
	WRErrors        int64 // work requests completed in error (fault plane)
	QPResets        int64 // queue-pair error-state recoveries
	RegTime         sim.Duration
	DeregTime       sim.Duration
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Registrations += other.Registrations
	c.RegFailures += other.RegFailures
	c.Deregistrations += other.Deregistrations
	c.RegCacheHits += other.RegCacheHits
	c.RegCacheMisses += other.RegCacheMisses
	c.SendMsgs += other.SendMsgs
	c.RDMAWrites += other.RDMAWrites
	c.RDMAReads += other.RDMAReads
	c.BytesOut += other.BytesOut
	c.WRErrors += other.WRErrors
	c.QPResets += other.QPResets
	c.RegTime += other.RegTime
	c.DeregTime += other.DeregTime
}
