package pvfs

import (
	"fmt"

	"pvfsib/internal/fault"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// AttachFaults arms the cluster's injector with the plan and wires it into
// every substrate layer: the fabric consults it per message, every adapter
// per work request and registration, every disk per transfer. Scheduled
// daemon crashes are planted on the event timeline (times are relative to
// the current virtual time). Attaching replaces any previous plan and
// starts the tallies at zero; a nil plan detaches everything, restoring the
// zero-overhead fault-free paths, and leaves the tallies readable.
//
// The manager is co-located with server 0 (as in the paper's testbed), so
// a plan must not crash server 0 — metadata has no retry story by design.
func (c *Cluster) AttachFaults(plan *fault.Plan) *fault.Injector {
	if plan == nil {
		c.Faults = nil
		c.attach()
		return nil
	}
	for _, cr := range plan.Crashes {
		if cr.Server <= 0 || cr.Server >= len(c.Servers) {
			sim.Failf("pvfs: fault plan crashes server %d (valid: 1..%d; server 0 hosts the manager)",
				cr.Server, len(c.Servers)-1)
		}
	}
	// Every node (and every disk) draws from its own seeded stream and
	// tallies into its own counter set, so the fault schedule and counts
	// are independent of cross-node event interleaving — byte-identical at
	// any engine shard count — and every injector access is shard-local.
	// The first attach registers them; every plan re-arms them in place.
	if c.faults.Len() == 0 {
		c.faults.Register(c.names...)
		c.faults.RegisterLinks(c.Net.NumNodes())
	}
	c.faults.Arm(*plan)
	c.Faults = &c.faults
	c.attach()
	now := c.Eng.Now()
	for _, cr := range plan.Crashes {
		srv := c.Servers[cr.Server]
		// Crash and restart land on the crashing daemon's own group: the
		// handlers touch only that server's state, so a sharded engine can
		// replay them without cross-shard traffic.
		srv.armCrash()
		c.Eng.ScheduleOn(srv.node.Group(), now.Add(cr.At), srv.onCrash)
		c.Eng.GoAtOn(srv.node.Group(), now.Add(cr.At+cr.Down), srv.restartName, srv.onRestart)
	}
	return c.Faults
}

// recovery returns the retry parameters, or nil when no fault plane is
// attached — the signal for every call site to take the original blocking
// path with no timers and no sequence filtering.
func (c *Cluster) recovery() *Recovery {
	if c.Faults == nil {
		return nil
	}
	return &c.Cfg.Recovery
}

// armCrash binds the daemon's crash and restart callbacks and its
// registration message, on the first plan that crashes it; every later
// plan schedules the same ones.
func (s *Server) armCrash() {
	if s.onCrash != nil {
		return
	}
	s.onCrash = s.crash
	s.onRestart = s.restart
	s.restartName = fmt.Sprintf("iod[restart-io%d]", s.idx)
	s.register = &reqIodRegister{Server: s.idx}
}

// crash kills the I/O daemon: the adapter discards all traffic, in-flight
// request handling aborts at its next step, and the daemon's open file
// table is lost. The local file system (kernel page cache included)
// survives — this is a daemon restart, not a node power loss, so
// acknowledged data is never lost. It runs as an event of the daemon's own
// group, so the group's clock is the crash time (the engine-wide clock,
// which other shards may have run past, is not).
func (s *Server) crash() {
	at := s.node.Group().Now()
	s.down = true
	s.hca.SetDown(true)
	// Cleared, not remade: the restarted daemon reopens its files into the
	// table's storage, each under its name in s.names, which is on disk.
	clear(s.files)
	s.acct.Crashes++
	s.cluster.Spans.Instant(at, 0, s.node.Name, "iod-crash", 0, func() string { return "daemon down, open files dropped" })
}

// restart brings the daemon back: the adapter accepts traffic again and
// the daemon re-registers with the metadata manager, as a freshly booted
// iod would. Stripe files reopen lazily on first access.
func (s *Server) restart(p *sim.Proc) {
	s.down = false
	s.hca.SetDown(false)
	s.acct.Restarts++
	s.registerWithManager(p)
	s.cluster.Spans.Instant(p.Now(), trace.Ctx(p.TraceCtx()), s.node.Name, "iod-restart", 0, func() string { return "daemon up, re-registered" })
}

// registerWithManager performs the iod registration RPC over the daemon's
// control connection.
func (s *Server) registerWithManager(p *sim.Proc) {
	s.mgrMu.Acquire(p)
	defer s.mgrMu.Release()
	if err := s.mgrQP.Send(p, reqSize(0), s.register); err != nil {
		// Control path; only a partition can fail it. The daemon still
		// serves — registration is advisory bookkeeping in this model.
		s.cluster.Spans.Instant(p.Now(), trace.Ctx(p.TraceCtx()), s.node.Name, "iod-register-fail", 0, err.Error)
		return
	}
	_, resp := s.mgrQP.Recv(p)
	if _, ok := resp.(*respIodRegister); !ok {
		sim.Failf("pvfs: server %d: expected IodRegister reply, got %T", s.idx, resp)
	}
	s.acct.IodRegistrations++
}
