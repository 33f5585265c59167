package pvfs

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
)

// Wire protocol between clients, I/O daemons, and the metadata manager.
// Request messages are small; bulk data always moves by RDMA.

const (
	reqHeaderBytes  = 64 // fixed request header
	bytesPerPair    = 16 // one file offset-length pair
	smallReplyBytes = 32
)

// reqOpen asks the metadata manager for a file handle, creating the file if
// necessary. StripeSize, when nonzero, sets the new file's striping unit
// (ignored for existing files — striping is immutable after create, as in
// PVFS).
type reqOpen struct {
	Seq        int64
	Name       string
	StripeSize int64
}

type respOpen struct {
	Seq        int64
	FileID     int64
	StripeSize int64
}

// record is the one message type between a client and an iod: list-I/O
// requests, the rendezvous messages of a gather transfer, whole-file
// requests and the replies, told apart by Kind. Records are pooled per
// engine shard exactly as simnet.Message and the adapters' wire structs are
// — the sender takes one from its shard's free list, the consumer recycles
// it into its own — and because requests and replies are the same type, a
// connection's traffic recirculates them between the two shards' pools
// instead of draining one and growing the other.
//
// A record owns its region list. The sender copies a chunk's regions into
// Accs when it builds the request, which is what serialisation does on a
// real wire: a request still queued or being served after its client timed
// out, re-chunked the part or reused the operation plan never sees the
// client's scratch.
type record struct {
	Kind recKind
	Seq  int64
	// FileID, Accs (server-local regions, in payload order) and Total (their
	// bytes) describe a recWrite or recRead request; a whole-file request
	// has a FileID alone, and a recStatResp has the local size in Total.
	FileID int64
	Accs   []OffLen
	Total  int64
	// SchemePack: the payload travels through the connection's Fast-RDMA
	// buffers (a write's data has already been RDMA-written into the
	// server's receive buffer, a read's is RDMA-written into the client's
	// before the reply); otherwise the server stages it and the two sides
	// rendezvous.
	SchemePack bool
	Sieve      sieve.Mode
	// Ctx is the sender's packed trace context; server-side spans for
	// this request become children of it. Zero when tracing is off.
	Ctx uint64
	// Stream: the payload rides inline in Data (stream-socket transport),
	// in the request of a write and in the reply of a read. The record
	// owns Data until it is recycled.
	Stream bool
	Data   []byte
	// Addr/Key is the server's staging buffer and the key of this lend of
	// it (ib.Buffer.Key), carried by recWriteReady and by the recReadResp
	// of a gather read.
	Addr mem.Addr
	Key  ib.Key
}

// recKind says which message of the data path a record is.
type recKind uint8

const (
	// recFree marks a record in a free list; nothing on the wire carries it.
	recFree recKind = iota
	// recWrite announces a list write of Total bytes covering Accs. With
	// SchemePack the data is already in the connection's receive buffer;
	// with gather the server answers recWriteReady.
	recWrite
	// recWriteReady carries the staging buffer for a gather write.
	recWriteReady
	// recWriteDone tells the server the gather RDMA write has completed.
	recWriteDone
	// recWriteResp completes a write request.
	recWriteResp
	// recRead requests a list read.
	recRead
	// recReadResp completes a pack read (data already delivered) or, for
	// gather, announces the staging buffer to RDMA-read from.
	recReadResp
	// recReadDone releases the server's staging buffer after a gather read.
	recReadDone
	// The whole-file requests: flush the file to disk, report the stripe
	// file's local size, delete it. Each one's reply is the kind after it.
	recSync
	recSyncResp
	recStat
	recStatResp
	recRemove
	recRemoveResp
)

var recKindNames = [...]string{"free", "write", "write-ready", "write-done", "write-resp", "read", "read-resp", "read-done",
	"sync", "sync-resp", "stat", "stat-resp", "remove", "remove-resp"}

func (k recKind) String() string { return recKindNames[k] }

// recordPool is one engine shard's free list of records. Only code running
// on that shard touches it, so it needs no lock.
type recordPool struct{ sim.FreeList[record] }

// take returns a record of the given kind and sequence number, every other
// field zero and Accs empty, from the free list or fresh.
func (rp *recordPool) take(kind recKind, seq int64) *record {
	r := rp.Take()
	*r = record{Kind: kind, Seq: seq, Accs: r.Accs[:0]}
	return r
}

// put recycles a record its consumer is done with. A record that never
// comes back — dropped on a cut link, discarded by a down adapter, drained
// by a QP reset — is the garbage collector's.
func (rp *recordPool) put(r *record) {
	if r.Kind == recFree {
		sim.Failf("pvfs: record recycled twice")
	}
	r.Kind, r.Data = recFree, nil
	if sim.PoisonReleased {
		// No MR owns the last address and key, so an RDMA aimed at a
		// released record's staging buffer fails.
		r.Seq, r.Addr, r.Key = -1, ^mem.Addr(0), ^ib.Key(0)
		poisonAccs(r.Accs)
	}
	rp.Put(r)
}

// reqUnlink asks the manager to drop a name from the name space.
type reqUnlink struct {
	Seq  int64
	Name string
	// Ctx is the sender's packed trace context (see record.Ctx).
	Ctx uint64
}

type respUnlink struct {
	Seq    int64
	FileID int64
	Found  bool
}

// reqIodRegister announces a (re)started I/O daemon to the metadata
// manager. In real PVFS every iod registers at boot; here setup is static,
// so the message only appears when the fault plane restarts a daemon.
type reqIodRegister struct {
	Server int
}

type respIodRegister struct{}

// reqLease asks the manager for a per-file cache lease. A read lease lets
// the client serve reads from cached pages; a write lease additionally
// covers dirty write-behind pages. Any number of clients may hold read
// leases; a write lease is exclusive. Conflicting holders are recalled
// (reqLeaseRecall) before the grant reply is sent, so a granted lease is
// immediately safe to act on.
type reqLease struct {
	Seq    int64
	FileID int64
	Client int // requesting client's index, the lease holder identity
	Write  bool
}

type respLease struct{ Seq int64 }

// reqLeaseRelease returns a lease voluntarily (cache close). Releasing a
// lease the manager does not record — e.g. one already revoked by a recall —
// is a no-op.
type reqLeaseRelease struct {
	Seq    int64
	FileID int64
	Client int
}

type respLeaseRelease struct{ Seq int64 }

// reqLeaseRecall is the manager-to-client callback revoking a lease: the
// client must flush dirty pages, invalidate the file's cached pages, and
// ack. Recalls are idempotent — a resend after a lost ack re-runs a no-op
// flush — and carry their own sequence numbers (manager-minted, so a
// distinct space from client request numbers).
type reqLeaseRecall struct {
	Seq    int64
	FileID int64
}

type respLeaseRecallAck struct{ Seq int64 }

// seqer is implemented by every response that echoes its request's
// sequence number. The recovery layer filters stale responses — replies to
// an attempt the client already timed out and re-issued — by comparing
// sequence numbers; a request retry gets a fresh number.
type seqer interface{ seqNum() int64 }

func (r *respOpen) seqNum() int64   { return r.Seq }
func (r *respUnlink) seqNum() int64 { return r.Seq }
func (r *record) seqNum() int64     { return r.Seq }
func (r *respLease) seqNum() int64  { return r.Seq }

func (r *respLeaseRelease) seqNum() int64 { return r.Seq }

func reqSize(npairs int) int { return reqHeaderBytes + npairs*bytesPerPair }
