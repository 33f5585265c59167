package pvfs

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/sim"
)

// Lease-based cache coherence. The metadata manager grants per-file leases
// to clients: any number of concurrent read leases, or one exclusive write
// lease. A conflicting request triggers a callback (recall) to every
// conflicting holder over a dedicated control QP; the holder flushes and
// invalidates its cached pages, acks, and only then does the manager grant
// the new lease. The grant reply therefore certifies that no other client
// holds stale or dirty pages for the file.
//
// Leases survive iod crash/restart untouched: the manager (which never
// crashes — it shares server 0, excluded from crash plans) owns the lease
// table, and iod recovery is invisible to it. Dirty pages covered by a
// write lease simply retry their flushes through the client's idempotent
// chunk recovery. Recalls ride the control plane — exempt from injected
// completion errors but not from partitions — so the manager resends an
// unacked recall with the usual backoff; clients never crash in this
// model, so every recall is eventually acked.

// leaseState is the manager's record for one file: reader holders in grant
// order (a deterministic slice, never a map, so recall order is stable
// across runs) plus at most one writer.
type leaseState struct {
	readers []int
	writer  int // client index, -1 when none
}

// handleLease serves one reqLease on the manager. The lease mutex is held
// across the entire recall-then-grant sequence so two concurrent
// conflicting requests serialize: the second requester's recalls see the
// first one's finished grant state.
func (m *Manager) handleLease(p *sim.Proc, qp *ib.QP, req *reqLease) {
	m.leaseMu.Acquire(p)
	ls := m.leases[req.FileID]
	if ls == nil {
		ls = &leaseState{writer: -1}
		m.leases[req.FileID] = ls
	}
	if req.Write {
		// Exclusive: recall every other holder.
		for len(ls.readers) > 0 {
			r := ls.readers[0]
			if r == req.Client {
				if len(ls.readers) == 1 {
					break
				}
				// Move self to the end so the loop can drain the rest.
				ls.readers = append(ls.readers[1:], r)
				continue
			}
			m.recall(p, r, req.FileID)
			ls.readers = ls.readers[1:]
		}
		if ls.writer >= 0 && ls.writer != req.Client {
			m.recall(p, ls.writer, req.FileID)
		}
		ls.readers = ls.readers[:0]
		ls.writer = req.Client
	} else {
		if ls.writer >= 0 && ls.writer != req.Client {
			m.recall(p, ls.writer, req.FileID)
			ls.writer = -1
		}
		if ls.writer != req.Client && !containsInt(ls.readers, req.Client) {
			ls.readers = append(ls.readers, req.Client)
		}
	}
	m.mx.leaseGrants.Add(p.Now(), 1)
	m.leaseMu.Release()
	m.send(p, qp, &respLease{Seq: req.Seq})
}

// handleLeaseRelease drops a voluntary release into the table.
func (m *Manager) handleLeaseRelease(p *sim.Proc, qp *ib.QP, req *reqLeaseRelease) {
	m.leaseMu.Acquire(p)
	if ls := m.leases[req.FileID]; ls != nil {
		if ls.writer == req.Client {
			ls.writer = -1
		}
		ls.readers = removeInt(ls.readers, req.Client)
	}
	m.leaseMu.Release()
	m.send(p, qp, &respLeaseRelease{Seq: req.Seq})
}

// recall revokes one client's lease on one file and waits for the ack.
// Called with the lease mutex held; the caller removes the holder from the
// table afterwards. Runs on the requesting client's manager serve process,
// so the recalled client's own serve process stays responsive throughout.
func (m *Manager) recall(p *sim.Proc, client int, fileID int64) {
	m.mx.leaseRecalls.Add(p.Now(), 1)
	rec := m.cluster.recovery()
	qp := m.cbs[client]
	for attempt := 0; ; attempt++ {
		m.recallSeq++
		seq := m.recallSeq
		if err := qp.Send(p, reqSize(0), &reqLeaseRecall{Seq: seq, FileID: fileID}); err != nil {
			// Control QPs see no injected completion errors; only a
			// partition can eat the send, and partitions imply a fault
			// plane with a recovery policy.
			if rec == nil {
				sim.Failf("pvfs: manager: recall send failed without fault plane: %v", err)
			}
			qp.Reset(p)
			p.Sleep(retryBackoff(rec, attempt))
			continue
		}
		if rec == nil {
			for {
				_, payload := qp.Recv(p)
				if ack, ok := payload.(*respLeaseRecallAck); ok && ack.Seq == seq {
					return
				}
			}
		}
		for {
			_, payload, ok := qp.RecvTimeout(p, rec.Timeout)
			if !ok {
				break
			}
			if ack, ok := payload.(*respLeaseRecallAck); ok && ack.Seq == seq {
				return
			}
			// A stale ack from a resent earlier recall: discard and keep
			// waiting out the same timeout window.
		}
		p.Sleep(retryBackoff(rec, attempt))
	}
}

// AcquireLease obtains (or refreshes) this client's lease on the file. A
// write lease covers reads too. The call returns only after every
// conflicting holder has flushed and invalidated, so the caller may cache
// from that point on. Re-acquiring a mode already held is cheap but still
// a manager round trip; callers are expected to track their own mode.
func (fh *FileHandle) AcquireLease(p *sim.Proc, write bool) error {
	c := fh.client
	c.mgr.mu.Acquire(p)
	defer c.mgr.mu.Release()
	c.acct.LeaseReqs++
	_, err := c.rpc(p, c.mgr, reqSize(0), func(seq int64) any {
		return &reqLease{Seq: seq, FileID: fh.id, Client: c.idx, Write: write}
	})
	return err
}

// ReleaseLease returns this client's lease on the file, if any.
func (fh *FileHandle) ReleaseLease(p *sim.Proc) error {
	c := fh.client
	c.mgr.mu.Acquire(p)
	defer c.mgr.mu.Release()
	_, err := c.rpc(p, c.mgr, reqSize(0), func(seq int64) any {
		return &reqLeaseRelease{Seq: seq, FileID: fh.id, Client: c.idx}
	})
	return err
}

// OnLeaseRecall registers a callback run (on the client's recall daemon
// process) whenever the manager recalls this client's lease on the file.
// The callback must leave no stale cached state behind when it returns —
// the daemon acks the recall right after, and the manager then re-grants
// the file to someone else. Returns an unregister function.
func (fh *FileHandle) OnLeaseRecall(fn func(p *sim.Proc)) func() {
	c := fh.client
	if c.recallFns == nil {
		c.recallFns = make(map[int64][]*recallFn)
	}
	entry := &recallFn{fn: fn}
	c.recallFns[fh.id] = append(c.recallFns[fh.id], entry)
	return func() {
		fns := c.recallFns[fh.id]
		for i, e := range fns {
			if e == entry {
				c.recallFns[fh.id] = append(fns[:i:i], fns[i+1:]...)
				return
			}
		}
	}
}

// recallFn wraps a recall callback so unregistration can match by identity.
type recallFn struct{ fn func(p *sim.Proc) }

// serveRecalls is the client's recall daemon: one park-forever process per
// client draining the manager's callback QP. Handlers registered for the
// recalled file run in registration order; duplicate deliveries (a resend
// after a lost ack) re-run them, which the cache makes a no-op.
func (c *Client) serveRecalls(p *sim.Proc, qp *ib.QP) {
	for {
		_, payload := qp.Recv(p)
		req, ok := payload.(*reqLeaseRecall)
		if !ok {
			sim.Failf("pvfs: cn%d recall daemon: unexpected message %T", c.idx, payload)
		}
		fns := c.recallFns[req.FileID]
		for i := 0; i < len(fns); i++ {
			fns[i].fn(p)
		}
		if err := qp.Send(p, smallReplyBytes, &respLeaseRecallAck{Seq: req.Seq}); err != nil {
			// Partition ate the ack; the manager resends the recall and
			// the handlers re-run idempotently.
			qp.Reset(p)
		}
	}
}

// LeaseHolders reports the manager's current holders for a file, for tests:
// reader client indices in grant order and the writer (-1 when none).
func (m *Manager) LeaseHolders(fileID int64) (readers []int, writer int) {
	ls := m.leases[fileID]
	if ls == nil {
		return nil, -1
	}
	return append([]int(nil), ls.readers...), ls.writer
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}
