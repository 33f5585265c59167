package pvfs

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
	"pvfsib/internal/stats"
)

// fileMeta is the manager's per-file metadata.
type fileMeta struct {
	id         int64
	stripeSize int64
}

// Manager is the PVFS metadata manager. It provides the cluster-wide name
// space and per-file striping metadata; it never participates in data
// transfers. Like the paper's testbed it shares a node (and so an adapter)
// with the first I/O server.
type Manager struct {
	node  *simnet.Node
	space *mem.AddrSpace
	hca   *ib.HCA

	cluster *Cluster
	cfg     *Config
	nextID  int64
	byName  map[string]fileMeta // by value: a create allocates no record
	// iods records each I/O daemon's last registration time. Daemons
	// register at boot (statically, time zero) and re-register after a
	// fault-plane restart.
	iods map[int]sim.Time

	// Lease coherence state (lease.go). leaseMu is held across a whole
	// recall-then-grant sequence; cbs holds the manager side of each
	// client's callback QP; recallSeq numbers manager-initiated recalls.
	leases    map[int64]*leaseState
	leaseMu   *sim.Resource
	cbs       map[int]*ib.QP
	recallSeq int64

	// recs is the record pool of the manager's engine shard (proto.go).
	recs *recordPool

	// acct tallies the manager's counters (lease grants and recalls).
	acct stats.Acct

	// mx samples lease-coherence activity per interval (metrics.go).
	mx managerMetrics
}

func newManager(c *Cluster) *Manager {
	m := &Manager{
		cluster: c,
		cfg:     &c.Cfg,
		byName:  make(map[string]fileMeta),
		iods:    make(map[int]sim.Time),
		leases:  make(map[int64]*leaseState),
		leaseMu: c.Eng.NewResource("mgr.leases", 1),
		cbs:     make(map[int]*ib.QP),
		// Co-located with the first I/O server.
		node:  c.Servers[0].node,
		space: c.Servers[0].space,
		hca:   c.Servers[0].hca,
	}
	m.recs = c.recordPool(m.node)
	m.setMetrics(nil)
	return m
}

// serve handles one client's metadata connection.
func (m *Manager) serve(p *sim.Proc, qp *ib.QP) {
	for {
		_, payload := qp.Recv(p)
		switch req := payload.(type) {
		case *record:
			m.serveName(p, qp, req)
		case *reqIodRegister:
			m.iods[req.Server] = p.Now()
			m.send(p, qp, &respIodRegister{})
		case *reqLease:
			m.handleLease(p, qp, req)
		case *reqLeaseRelease:
			m.handleLeaseRelease(p, qp, req)
		default:
			sim.Failf("pvfs: manager: unexpected message %T", payload)
		}
	}
}

// serveName answers an open or an unlink, recycling the request.
func (m *Manager) serveName(p *sim.Proc, qp *ib.QP, req *record) {
	var resp *record
	switch req.Kind {
	case recOpen:
		meta, ok := m.byName[req.Name]
		if !ok {
			stripe := req.Total
			if stripe <= 0 {
				stripe = m.cfg.StripeSize
			}
			meta = fileMeta{id: m.nextID, stripeSize: stripe}
			m.nextID++
			m.byName[req.Name] = meta
		}
		resp = m.recs.take(recOpenResp, req.Seq)
		resp.FileID, resp.Total = meta.id, meta.stripeSize
	case recUnlink:
		p.SetTraceCtx(req.Ctx)
		resp = m.recs.take(recUnlinkResp, req.Seq)
		if meta, ok := m.byName[req.Name]; ok {
			resp.FileID, resp.Total = meta.id, 1
			delete(m.byName, req.Name)
		}
	default:
		sim.Failf("pvfs: manager: unexpected %v record", req.Kind)
	}
	m.recs.put(req)
	m.send(p, qp, resp)
	p.SetTraceCtx(0)
}

// send replies on a metadata connection. Control QPs never see injected
// completion errors, but a partition that happens to cover the manager's
// node can still eat a reply; the client-side timeout covers that, so the
// manager just drops the error and serves on; a record that failed to go
// never left this node and goes back to the pool.
func (m *Manager) send(p *sim.Proc, qp *ib.QP, resp any) {
	if err := qp.Send(p, smallReplyBytes, resp); err != nil {
		qp.Reset(p)
		if r, ok := resp.(*record); ok {
			m.recs.put(r)
		}
	}
}

// IodRegistrations exposes the registration table for tests.
func (m *Manager) IodRegistrations() map[int]sim.Time { return m.iods }
