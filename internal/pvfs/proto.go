package pvfs

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sieve"
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

// reqWrite announces a list write of Total bytes covering Accs (server-local
// regions). With SchemePack the data has already been RDMA-written into the
// connection's receive buffer; with gather the server replies with a staging
// buffer for the client to RDMA-write into.
type reqWrite struct {
	Seq        int64
	FileID     int64
	Accs       []OffLen
	Total      int64
	SchemePack bool
	Sieve      sieve.Mode
	// Ctx is the sender's packed trace context; server-side spans for
	// this request become children of it. Zero when tracing is off.
	Ctx uint64
	// Stream carries the payload inline (stream-socket transport).
	Stream bool
	Data   []byte
}

// respWriteReady carries the staging buffer for a gather write.
type respWriteReady struct {
	Seq  int64
	Addr mem.Addr
	Key  ib.Key
}

// reqWriteDone tells the server the gather RDMA write has completed.
type reqWriteDone struct{ Seq int64 }

// respWrite completes a write request.
type respWrite struct{ Seq int64 }

// reqRead requests a list read. With SchemePack the server RDMA-writes the
// packed bytes into the connection's client-side buffer before replying;
// with gather the server stages the bytes and the client RDMA-reads them.
type reqRead struct {
	Seq        int64
	FileID     int64
	Accs       []OffLen
	Total      int64
	SchemePack bool
	Sieve      sieve.Mode
	// Ctx is the sender's packed trace context (see reqWrite.Ctx).
	Ctx uint64
	// Stream asks for the payload inline in the reply.
	Stream bool
}

// respRead completes a pack read (data already delivered) or, for gather,
// announces the staging buffer to RDMA-read from.
type respRead struct {
	Seq  int64
	Addr mem.Addr
	Key  ib.Key
	// Data carries the payload for stream-transport reads.
	Data []byte
}

// reqReadDone releases the server's staging buffer after a gather read.
type reqReadDone struct{ Seq int64 }

// reqSync asks the server to flush the file's dirty data to disk.
type reqSync struct {
	Seq    int64
	FileID int64
	// Ctx is the sender's packed trace context (see reqWrite.Ctx).
	Ctx uint64
}

type respSync struct{ Seq int64 }

// reqStat asks a server for its stripe file's local size, from which the
// client computes the logical end of file.
type reqStat struct {
	Seq    int64
	FileID int64
}

type respStat struct {
	Seq       int64
	LocalSize int64
}

// reqRemove asks a server to delete its stripe file.
type reqRemove struct {
	Seq    int64
	FileID int64
	// Ctx is the sender's packed trace context (see reqWrite.Ctx).
	Ctx uint64
}

type respRemove struct{ Seq int64 }

// reqUnlink asks the manager to drop a name from the name space.
type reqUnlink struct {
	Seq  int64
	Name string
	// Ctx is the sender's packed trace context (see reqWrite.Ctx).
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

func (r *respOpen) seqNum() int64       { return r.Seq }
func (r *respUnlink) seqNum() int64     { return r.Seq }
func (r *respWriteReady) seqNum() int64 { return r.Seq }
func (r *respWrite) seqNum() int64      { return r.Seq }
func (r *respRead) seqNum() int64       { return r.Seq }
func (r *respSync) seqNum() int64       { return r.Seq }
func (r *respStat) seqNum() int64       { return r.Seq }
func (r *respRemove) seqNum() int64     { return r.Seq }
func (r *respLease) seqNum() int64      { return r.Seq }

func (r *respLeaseRelease) seqNum() int64 { return r.Seq }

func reqSize(npairs int) int { return reqHeaderBytes + npairs*bytesPerPair }
