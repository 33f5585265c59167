// Package pvfs implements a PVFS-style parallel file system over the
// simulated InfiniBand verbs layer: a metadata manager, I/O daemons that
// store file stripes in their local file systems, and a client library with
// contiguous and list-I/O (noncontiguous) reads and writes.
//
// The design follows the paper:
//
//   - Files are striped round-robin across the I/O servers (64 kB default).
//   - pvfs_read_list / pvfs_write_list carry up to MaxListCount file
//     offset-length pairs per request message (128 default).
//   - Noncontiguous data moves by one of two schemes, chosen per request by
//     the hybrid policy of Section 4.3: Pack/Unpack through pre-registered
//     Fast-RDMA buffers for transfers at or below the stripe size, RDMA
//     Gather/Scatter with Optimistic Group Registration above it.
//   - I/O daemons apply Active Data Sieving (internal/sieve) per request,
//     deciding via the cost model whether to sieve or access each piece
//     individually.
package pvfs

import (
	"time"

	"pvfsib/internal/disk"
	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/localfs"
	"pvfsib/internal/ogr"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// Transfer selects the noncontiguous data transmission scheme.
type Transfer int

const (
	// Hybrid packs transfers at or below FastBufSize and gathers above
	// (the paper's final design).
	Hybrid Transfer = iota
	// ForcePack always copies through the Fast-RDMA buffers.
	ForcePack
	// ForceGather always uses RDMA Gather/Scatter on the user buffers.
	ForceGather
)

func (t Transfer) String() string {
	switch t {
	case Hybrid:
		return "hybrid"
	case ForcePack:
		return "pack"
	case ForceGather:
		return "gather"
	}
	return "unknown"
}

// Wire selects the transport the PVFS protocol runs over.
type Wire int

const (
	// WireVerbs is the paper's design: RDMA data movement with the
	// hybrid pack/gather policy and memory registration.
	WireVerbs Wire = iota
	// WireStream models the original PVFS transport, stream sockets over
	// TCP/IP: no RDMA, no registration; data rides in the messages with a
	// kernel copy on each side and per-message stack overhead. This is
	// the baseline the paper's Section 3.1 describes.
	WireStream
)

func (w Wire) String() string {
	if w == WireStream {
		return "stream"
	}
	return "verbs"
}

// RegPolicy selects how gather/scatter registers client buffers.
type RegPolicy int

const (
	// RegCached uses Optimistic Group Registration through the pin-down
	// cache (the production configuration).
	RegCached RegPolicy = iota
	// RegOGR uses Optimistic Group Registration with immediate
	// deregistration (Table 4's "OGR" case).
	RegOGR
	// RegIndividual registers every buffer separately and deregisters
	// after the transfer (Table 4's "Indiv." case).
	RegIndividual
	// RegDeclared implements the paper's Section 4.2.1 second scheme: the
	// application declares the actual allocation its buffers came from
	// (OpOptions.Allocation) and the library registers exactly that
	// region, once, through the pin-down cache. Requires an application
	// change, which is why the paper's final design rejects it.
	RegDeclared
	// RegExplicit implements Section 4.2.1's first scheme: the
	// application pre-registered its regions with Client.RegisterRegion
	// and the operation performs no registration work at all; segments
	// must already be covered or the transfer faults.
	RegExplicit
)

// Config assembles the cluster's tunables.
type Config struct {
	// StripeSize is the striping unit (the paper's PVFS default, 64 kB).
	StripeSize int64
	// MaxListCount bounds offset-length pairs per request message.
	MaxListCount int
	// MaxRequestBytes bounds the data carried by one request; it equals
	// the server staging buffer size, a whole number of pages.
	MaxRequestBytes int64
	// FastBufSize is the Fast-RDMA buffer size, a whole number of pages,
	// and the hybrid pack/gather threshold.
	FastBufSize int64
	// StagingBuffers is the number of staging buffers per server.
	StagingBuffers int
	// Wire selects RDMA verbs or stream sockets as the transport.
	Wire Wire
	// StreamOverhead is the per-message TCP/IP stack cost charged on each
	// side when Wire is WireStream.
	StreamOverhead sim.Duration
	// RegCacheBytes and RegCacheEntries size each client's pin-down cache.
	RegCacheBytes   int64
	RegCacheEntries int
	// OGR configures group registration.
	OGR ogr.Config

	// Shards, when > 1, partitions the engine into that many parallel
	// shards before the cluster's node groups are created; results are
	// byte-identical at any shard count. Zero leaves the engine's current
	// shard layout (normally 1) untouched.
	Shards int

	// Faults, when non-nil, is compiled into an injector and attached to
	// every substrate layer at cluster construction (see
	// Cluster.AttachFaults). A nil plan costs nothing anywhere.
	Faults *fault.Plan
	// Recovery tunes the client/server timeout-retry machinery. It is
	// consulted only while a fault plane is attached; fault-free runs take
	// the original blocking paths untouched.
	Recovery Recovery

	// Net, IB, Disk, FS are the substrate models.
	Net  simnet.Params
	IB   ib.Params
	Disk disk.Params
	FS   localfs.Params
}

// Recovery parameterizes the fault-recovery layer: per-request client
// timeouts with capped exponential backoff, idempotent re-issue of list-I/O
// chunks, and graceful degradation from RDMA Gather/Scatter to Pack/Unpack
// through the Fast-RDMA buffers.
type Recovery struct {
	// Timeout bounds each client wait for a server response.
	Timeout sim.Duration
	// ServerTimeout bounds the daemon's interior protocol waits (the
	// rendezvous completion notices); on expiry the daemon aborts the
	// request and releases its staging buffer.
	ServerTimeout sim.Duration
	// Backoff is the delay before the first retry; it doubles per attempt
	// up to MaxBackoff.
	Backoff    sim.Duration
	MaxBackoff sim.Duration
	// MaxRetries bounds re-issues of one chunk before the operation fails.
	MaxRetries int
	// FallbackAfter is the number of consecutive failed attempts on a
	// gather/scatter chunk after which the transfer falls back to
	// Pack/Unpack through the pre-registered Fast-RDMA buffers.
	FallbackAfter int
}

// DefaultRecovery returns timeouts sized for the simulated testbed. The
// client timeout must clear the worst case for a *healthy* request — the
// 2003-era disks move ~21 MB/s with 500 µs seeks and the daemon serializes
// its file phase across every client, so a legitimate reply can lag by
// hundreds of milliseconds; a premature timeout re-issues work that is
// still queued and spirals. The interior server timeout only covers the
// network-bound rendezvous window and can be much tighter.
func DefaultRecovery() Recovery {
	return Recovery{
		Timeout:       time.Second,
		ServerTimeout: 50 * time.Millisecond,
		Backoff:       2 * time.Millisecond,
		MaxBackoff:    100 * time.Millisecond,
		MaxRetries:    24,
		FallbackAfter: 3,
	}
}

// DefaultConfig matches the paper's testbed and PVFS defaults.
func DefaultConfig() Config {
	return Config{
		StripeSize:      64 << 10,
		MaxListCount:    128,
		MaxRequestBytes: 4 << 20,
		FastBufSize:     64 << 10,
		StagingBuffers:  8,
		Wire:            WireVerbs,
		StreamOverhead:  30 * time.Microsecond,
		RegCacheBytes:   256 << 20,
		RegCacheEntries: 1024,
		OGR:             ogr.DefaultConfig(),
		Recovery:        DefaultRecovery(),
		Net:             simnet.DefaultParams(),
		IB:              ib.DefaultParams(),
		Disk:            disk.DefaultParams(),
		FS:              localfs.DefaultParams(),
	}
}

// ConventionalConfig models PVFS on a conventional (pre-InfiniBand)
// cluster network: ~80 MB/s of TCP bandwidth with ~60 µs latency, the
// stream-socket transport, and no RDMA. Comparing it against
// DefaultConfig reproduces the paper's Section 1 observation that
// noncontiguous transmission schemes only start to matter once the
// network is fast.
func ConventionalConfig() Config {
	cfg := DefaultConfig()
	cfg.Wire = WireStream
	cfg.Net.Bandwidth = 80 * (1 << 20)
	cfg.Net.Latency = 60 * time.Microsecond
	return cfg
}

// OffLen is one contiguous file region: the same type end to end, so a
// request's region list reaches the daemon's sieve as it left the client.
type OffLen = sieve.Access

// TotalOffLen sums the lengths of a region list.
func TotalOffLen(accs []OffLen) int64 {
	var n int64
	for _, a := range accs {
		n += a.Len
	}
	return n
}
