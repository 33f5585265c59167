package pvfs

import (
	"fmt"

	"pvfsib/internal/fault"
	"pvfsib/internal/localfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// AttachFaults compiles the plan and wires the injector into every
// substrate layer: the fabric consults it per message, every adapter per
// work request and registration, every disk per transfer. Scheduled daemon
// crashes are planted on the event timeline (times are relative to the
// current virtual time). Attaching replaces any previous plan; attaching a
// nil plan detaches everything and restores the zero-overhead fault-free
// paths.
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
	c.Faults = fault.NewInjectorFrom(*plan, &c.faultRands)
	for _, name := range c.names {
		c.Faults.Register(name)
	}
	c.Faults.RegisterLinks(c.Net.NumNodes())
	c.attach()
	now := c.Eng.Now()
	for _, cr := range plan.Crashes {
		cr := cr
		srv := c.Servers[cr.Server]
		// Crash and restart land on the crashing daemon's own group: the
		// handlers touch only that server's state, so a sharded engine can
		// replay them without cross-shard traffic. The crash callback gets
		// its scheduled time explicitly — an event callback must not read
		// the engine-wide clock, which other shards may have run past.
		at := now.Add(cr.At)
		c.Eng.ScheduleOn(srv.node.Group(), at, func() { srv.crash(at) })
		c.Eng.GoAtOn(srv.node.Group(), now.Add(cr.At+cr.Down),
			fmt.Sprintf("iod[restart-io%d]", cr.Server),
			func(p *sim.Proc) { srv.restart(p) })
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

// crash kills the I/O daemon: the adapter discards all traffic, in-flight
// request handling aborts at its next step, and the daemon's open file
// table is lost. The local file system (kernel page cache included)
// survives — this is a daemon restart, not a node power loss, so
// acknowledged data is never lost.
func (s *Server) crash(at sim.Time) {
	s.down = true
	s.hca.SetDown(true)
	s.files = make(map[int64]*localfs.File)
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
	if err := s.mgrQP.Send(p, reqSize(0), &reqIodRegister{Server: s.idx}); err != nil {
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
