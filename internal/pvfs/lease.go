package pvfs

import (
	"slices"

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
// across runs) plus at most one writer. It leaves the table when the file
// is unlinked and no holder is left (dropLease), and goes back to the
// manager's free list with its readers slice.
type leaseState struct {
	readers []int
	writer  int  // client index, -1 when none
	gone    bool // the file is unlinked; the last release drops the state
}

func (ls *leaseState) held() bool { return ls.writer >= 0 || len(ls.readers) > 0 }

// handleLease serves one recLease on the manager. The lease mutex is held
// across the entire recall-then-grant sequence so two concurrent
// conflicting requests serialize: the second requester's recalls see the
// first one's finished grant state. A recalled holder stays in the table
// until its ack is in, so an unlink meanwhile cannot drop the state.
func (m *Manager) handleLease(p *sim.Proc, qp *ib.QP, req *record) {
	id, client, write := req.FileID, req.Client, req.Write
	resp := m.recs.take(recLeaseResp, req.Seq)
	m.recs.put(req)
	m.leaseMu.Acquire(p)
	ls := m.leases[id]
	if ls == nil {
		ls = m.freeLeases.Take()
		*ls = leaseState{readers: ls.readers[:0], writer: -1}
		m.leases[id] = ls
	}
	if write {
		// Exclusive: recall every other holder, readers in grant order.
		// Nothing else changes the table while the mutex is held, so the
		// readers leave it together once every recall is acked.
		for _, r := range ls.readers {
			if r != client {
				m.recall(p, r, id)
			}
		}
		if ls.writer >= 0 && ls.writer != client {
			m.recall(p, ls.writer, id)
		}
		ls.readers = ls.readers[:0]
		ls.writer = client
	} else {
		if ls.writer >= 0 && ls.writer != client {
			m.recall(p, ls.writer, id)
			ls.writer = -1
		}
		if ls.writer != client && !slices.Contains(ls.readers, client) {
			ls.readers = append(ls.readers, client)
		}
	}
	m.mx.leaseGrants.Add(p.Now(), 1)
	m.leaseMu.Release()
	m.send(p, qp, resp)
}

// handleLeaseRelease drops a voluntary release into the table.
func (m *Manager) handleLeaseRelease(p *sim.Proc, qp *ib.QP, req *record) {
	id, client := req.FileID, req.Client
	resp := m.recs.take(recLeaseReleaseResp, req.Seq)
	m.recs.put(req)
	m.leaseMu.Acquire(p)
	if ls := m.leases[id]; ls != nil {
		if ls.writer == client {
			ls.writer = -1
		}
		ls.readers = removeInt(ls.readers, client)
		if ls.gone && !ls.held() {
			m.dropLease(id, ls)
		}
	}
	m.leaseMu.Release()
	m.send(p, qp, resp)
}

// unlinked forgets the lease state of an unlinked file: at once when no
// client holds a lease on it, otherwise at the last release. File ids are
// never reused, so a state kept past that would never be read again.
func (m *Manager) unlinked(id int64) {
	ls := m.leases[id]
	if ls == nil {
		return
	}
	if ls.held() {
		ls.gone = true
		return
	}
	m.dropLease(id, ls)
}

func (m *Manager) dropLease(id int64, ls *leaseState) {
	delete(m.leases, id)
	m.freeLeases.Put(ls)
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
		req := m.recs.take(recLeaseRecall, seq)
		req.FileID = fileID
		if err := qp.Send(p, reqSize(0), req); err != nil {
			// Control QPs see no injected completion errors; only a
			// partition can eat the send, and partitions imply a fault
			// plane with a recovery policy. The record never left.
			m.recs.put(req)
			if rec == nil {
				sim.Failf("pvfs: manager: recall send failed without fault plane: %v", err)
			}
			qp.Reset(p)
			p.Sleep(retryBackoff(rec, attempt))
			continue
		}
		if rec == nil {
			for {
				if _, payload := qp.Recv(p); m.acks(payload, seq) {
					return
				}
			}
		}
		for {
			_, payload, ok := qp.RecvTimeout(p, rec.Timeout)
			if !ok {
				break
			}
			if m.acks(payload, seq) {
				return
			}
			// A stale ack from a resent earlier recall: discard and keep
			// waiting out the same timeout window.
		}
		p.Sleep(retryBackoff(rec, attempt))
	}
}

// acks recycles a message from a callback QP and reports whether it is the
// ack of recall seq.
func (m *Manager) acks(payload any, seq int64) bool {
	ack, ok := payload.(*record)
	if !ok || ack.Kind != recLeaseRecallAck {
		sim.Failf("pvfs: manager: unexpected callback message %T %v", payload, payload)
	}
	match := ack.Seq == seq
	m.recs.put(ack)
	return match
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
	return c.leaseRPC(p, recLease, fh.id, write)
}

// ReleaseLease returns this client's lease on the file, if any.
func (fh *FileHandle) ReleaseLease(p *sim.Proc) error {
	c := fh.client
	c.mgr.mu.Acquire(p)
	defer c.mgr.mu.Release()
	return c.leaseRPC(p, recLeaseRelease, fh.id, false)
}

// leaseRPC sends one lease request of the given kind to the manager and
// recycles its reply.
func (c *Client) leaseRPC(p *sim.Proc, kind recKind, fileID int64, write bool) error {
	resp, err := c.rpc(p, c.mgr, reqSize(0), func(seq int64) any {
		req := c.recs.take(kind, seq)
		req.FileID, req.Client, req.Write = fileID, c.idx, write
		return req
	})
	if err != nil {
		return err
	}
	r, err := asReply(resp, kind+1)
	if err != nil {
		return err
	}
	c.recs.put(r)
	return nil
}

// Recaller is what a lease recall runs on the client. Its Recall must leave
// no stale cached state behind when it returns — the recall daemon acks
// right after, and the manager then re-grants the file to someone else.
type Recaller interface{ Recall(p *sim.Proc) }

// RecallHook registers one Recaller for one file's lease recalls. It lives
// in the record that owns the cached state, so registering allocates
// nothing; the zero value is unregistered. The client keeps each file's
// hooks as a list threaded through them, in registration order.
type RecallHook struct {
	r      Recaller
	c      *Client // nil while unregistered
	fileID int64
	next   *RecallHook
}

// OnLeaseRecall registers h to run r (on the client's recall daemon
// process) whenever the manager recalls this client's lease on the file,
// after the hooks registered for the file before it. h must not be
// registered already; Unregister detaches it.
func (fh *FileHandle) OnLeaseRecall(h *RecallHook, r Recaller) {
	if h.c != nil {
		sim.Failf("pvfs: %s: recall hook registered twice", fh.name)
	}
	c := fh.client
	*h = RecallHook{r: r, c: c, fileID: fh.id}
	if c.recalls == nil {
		c.recalls = make(map[int64]*RecallHook)
	}
	last := c.recalls[fh.id]
	if last == nil {
		c.recalls[fh.id] = h
		return
	}
	for last.next != nil {
		last = last.next
	}
	last.next = h
}

// Unregister detaches the hook; the file's entry leaves the client's table
// with its last hook. Unregistering an unregistered hook is a no-op.
func (h *RecallHook) Unregister() {
	c := h.c
	if c == nil {
		return
	}
	if head := c.recalls[h.fileID]; head == h {
		if h.next == nil {
			delete(c.recalls, h.fileID)
		} else {
			c.recalls[h.fileID] = h.next
		}
	} else {
		for e := head; e != nil; e = e.next {
			if e.next == h {
				e.next = h.next
				break
			}
		}
	}
	*h = RecallHook{}
}

// serveRecalls is the client's recall daemon: one park-forever process per
// client draining the manager's callback QP. Hooks registered for the
// recalled file run in registration order; duplicate deliveries (a resend
// after a lost ack) re-run them, which the cache makes a no-op.
func (c *Client) serveRecalls(p *sim.Proc, qp *ib.QP) {
	for {
		_, payload := qp.Recv(p)
		req, ok := payload.(*record)
		if !ok || req.Kind != recLeaseRecall {
			sim.Failf("pvfs: cn%d recall daemon: unexpected message %T %v", c.idx, payload, payload)
		}
		fileID, seq := req.FileID, req.Seq
		c.recs.put(req)
		c.runRecalls(p, fileID)
		if ack := c.recs.take(recLeaseRecallAck, seq); qp.Send(p, smallReplyBytes, ack) != nil {
			// Partition ate the ack; the manager resends the recall and
			// the hooks re-run idempotently.
			c.recs.put(ack)
			qp.Reset(p)
		}
	}
}

// runRecalls runs the file's hooks. A hook's Recall may block, and a hook
// may be unregistered meanwhile — its cache closed, the record perhaps
// registered again for another file — so the daemon walks a copy of the
// list and skips a hook no longer registered for this file.
func (c *Client) runRecalls(p *sim.Proc, fileID int64) {
	hooks := c.recallScratch[:0]
	for h := c.recalls[fileID]; h != nil; h = h.next {
		hooks = append(hooks, h)
	}
	c.recallScratch = hooks
	for _, h := range hooks {
		if h.c == c && h.fileID == fileID {
			h.r.Recall(p)
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

// removeInt removes v from s in place, keeping the order of the rest.
func removeInt(s []int, v int) []int {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}
