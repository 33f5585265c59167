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
	byName  map[string]*fileMeta
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

	// acct tallies the manager's counters (lease grants and recalls).
	acct stats.Acct

	// mx samples lease-coherence activity per interval (metrics.go).
	mx managerMetrics
}

func newManager(c *Cluster) *Manager {
	m := &Manager{
		cluster: c,
		cfg:     &c.Cfg,
		byName:  make(map[string]*fileMeta),
		iods:    make(map[int]sim.Time),
		leases:  make(map[int64]*leaseState),
		leaseMu: c.Eng.NewResource("mgr.leases", 1),
		cbs:     make(map[int]*ib.QP),
		// Co-located with the first I/O server.
		node:  c.Servers[0].node,
		space: c.Servers[0].space,
		hca:   c.Servers[0].hca,
	}
	m.setMetrics(nil)
	return m
}

// serve handles one client's metadata connection.
func (m *Manager) serve(p *sim.Proc, qp *ib.QP) {
	for {
		_, payload := qp.Recv(p)
		switch req := payload.(type) {
		case *reqOpen:
			meta, ok := m.byName[req.Name]
			if !ok {
				stripe := req.StripeSize
				if stripe <= 0 {
					stripe = m.cfg.StripeSize
				}
				meta = &fileMeta{id: m.nextID, stripeSize: stripe}
				m.nextID++
				m.byName[req.Name] = meta
			}
			m.send(p, qp, &respOpen{Seq: req.Seq, FileID: meta.id, StripeSize: meta.stripeSize})
		case *reqUnlink:
			p.SetTraceCtx(req.Ctx)
			meta, ok := m.byName[req.Name]
			var id int64
			if ok {
				id = meta.id
				delete(m.byName, req.Name)
			}
			m.send(p, qp, &respUnlink{Seq: req.Seq, FileID: id, Found: ok})
			p.SetTraceCtx(0)
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

// send replies on a metadata connection. Control QPs never see injected
// completion errors, but a partition that happens to cover the manager's
// node can still eat a reply; the client-side timeout covers that, so the
// manager just drops the error and serves on.
func (m *Manager) send(p *sim.Proc, qp *ib.QP, resp any) {
	if err := qp.Send(p, smallReplyBytes, resp); err != nil {
		qp.Reset(p)
	}
}

// IodRegistrations exposes the registration table for tests.
func (m *Manager) IodRegistrations() map[int]sim.Time { return m.iods }
