// Package reg exercises the lifetime analyzer's registration row.
package reg

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/ogr"
	"pvfsib/internal/sim"
)

func post(p *sim.Proc, k ib.Key) {}

func work() error { return nil }

// useAfterRelease reads a handle after deregistering it.
func useAfterRelease(p *sim.Proc, h *ib.HCA) {
	mr, _ := h.Register(p, ib.Extent{Addr: 0x1000, Len: 4096})
	h.Deregister(p, mr)
	post(p, mr.LKey) // want `use of mr after release`
}

// doubleRelease deregisters the same handle twice on one path.
func doubleRelease(p *sim.Proc, h *ib.HCA) error {
	mr, err := h.Register(p, ib.Extent{Addr: 0x1000, Len: 4096})
	if err != nil {
		return err
	}
	h.Deregister(p, mr)
	h.Deregister(p, mr) // want `double release of mr`
	return nil
}

// leakOnError is the classic early-error-return leak: the registration
// succeeded, a later step fails, and the error path forgets to release.
func leakOnError(p *sim.Proc, h *ib.HCA) error {
	mr, err := h.Register(p, ib.Extent{Addr: 0x1000, Len: 4096})
	if err != nil {
		return err // fine: the err != nil arm knows mr is nil
	}
	err = work()
	if err != nil {
		return err // want `return leaks the live registration held by mr`
	}
	return h.Deregister(p, mr)
}

// leakAtEnd falls off the end of the function while still live.
func leakAtEnd(p *sim.Proc, pool *ib.BufPool) {
	buf := pool.Get(p) // want `registration assigned to buf is never released`
	post(p, ib.Key(buf.Addr))
}

// discard drops the registration on the floor.
func discard(p *sim.Proc, h *ib.HCA) {
	h.Register(p, ib.Extent{Addr: 0x1000, Len: 64}) // want `result of Register is discarded`
}

// deferDouble releases explicitly and again through the deferred call: the
// defer-chain replay catches the second release at exit.
func deferDouble(p *sim.Proc, h *ib.HCA) {
	mr, _ := h.Register(p, ib.Extent{Addr: 0x1000, Len: 64})
	defer h.Deregister(p, mr) // want `double release of mr`
	h.Deregister(p, mr)
}

// ogrDouble releases a group-registration result twice.
func ogrDouble(p *sim.Proc, reg ogr.Registrar) error {
	res, err := ogr.RegisterBuffers(p, reg, 4)
	if err != nil {
		return err
	}
	if err := ogr.Release(p, reg, res); err != nil {
		return err
	}
	ogr.Release(p, reg, res) // want `double release of res`
	return nil
}

// goodDefer pairs the registration with a deferred release: every path,
// including the early error return, is covered.
func goodDefer(p *sim.Proc, h *ib.HCA) error {
	mr, err := h.Register(p, ib.Extent{Addr: 0x1000, Len: 4096})
	if err != nil {
		return err
	}
	defer h.Deregister(p, mr)
	return work()
}

// goodMove transfers ownership to a new name and releases through it.
func goodMove(p *sim.Proc, h *ib.HCA) {
	mr, _ := h.Register(p, ib.Extent{Addr: 0x1000, Len: 64})
	keep := mr
	h.Deregister(p, keep)
}

// produce hands ownership to the caller: returning is not a leak, and the
// summary makes produce itself an origin at its call sites.
func produce(p *sim.Proc, h *ib.HCA) *ib.MR {
	mr, _ := h.Register(p, ib.Extent{Addr: 0x1000, Len: 64})
	return mr
}

// cleanup releases its parameter: the summary makes cleanup a release at
// its call sites.
func cleanup(p *sim.Proc, h *ib.HCA, mr *ib.MR) {
	h.Deregister(p, mr)
}

// summaryLeak registers through produce (an origin one call deep) and
// never releases.
func summaryLeak(p *sim.Proc, h *ib.HCA) {
	mr := produce(p, h) // want `registration assigned to mr is never released`
	post(p, mr.LKey)
}

// summaryRelease releases through cleanup (a release one call deep).
func summaryRelease(p *sim.Proc, h *ib.HCA) {
	mr := produce(p, h)
	post(p, mr.LKey)
	cleanup(p, h, mr)
}

// goodCache pairs cache Get with Put.
func goodCache(p *sim.Proc, c *ib.RegCache) error {
	mr, err := c.Get(p, ib.Extent{Addr: 0x2000, Len: 4096})
	if err != nil {
		return err
	}
	post(p, mr.LKey)
	return c.Put(p, mr)
}

// goodStatic uses a static registration: setup-lifetime by contract, never
// deregistered, and deliberately not an origin.
func goodStatic(p *sim.Proc, h *ib.HCA) error {
	_, err := h.RegisterStatic(ib.Extent{Addr: 0x3000, Len: 4096})
	return err
}

// maybeRelease releases on only one arm: the states disagree at the join,
// so the analyzer stays silent rather than guess.
func maybeRelease(p *sim.Proc, h *ib.HCA, c bool) {
	mr, _ := h.Register(p, ib.Extent{Addr: 0x1000, Len: 64})
	if c {
		h.Deregister(p, mr)
	}
}

// capture hands the handle to a closure: ownership escapes.
func capture(p *sim.Proc, h *ib.HCA) func() {
	mr, _ := h.Register(p, ib.Extent{Addr: 0x1000, Len: 64})
	return func() { h.Deregister(p, mr) }
}

// audited documents why its process-lifetime registration is intentional.
func audited(p *sim.Proc, h *ib.HCA) {
	//pvfslint:ok lifetime doorbell region stays pinned for the process lifetime
	mr, _ := h.Register(p, ib.Extent{Addr: 0x4000, Len: 8})
	post(p, mr.LKey)
}

// resetIsNotARelease: the fault plane's QP reset recovers the endpoint but
// leaves staging pinned — an abort path that resets without Put leaks.
func resetIsNotARelease(p *sim.Proc, pool *ib.BufPool, qp *ib.QP) {
	buf := pool.Get(p) // want `registration assigned to buf is never released on some path to the end of the function`
	post(p, ib.Key(buf.Addr))
	qp.Reset(p)
}

// goodAbort is the server's fault-plane abort idiom: on a send failure the
// staging buffer is returned to the pool before the endpoint resets.
func goodAbort(p *sim.Proc, pool *ib.BufPool, qp *ib.QP) {
	buf := pool.Get(p)
	if err := qp.Send(p, buf.Size, nil); err != nil {
		buf.Put()
		qp.Reset(p)
		return
	}
	buf.Put()
}

// goodRetry is the client's recovery idiom: each attempt re-acquires and
// releases its registration, so a retry never doubles or leaks a pin.
func goodRetry(p *sim.Proc, c *ib.RegCache, qp *ib.QP) error {
	for attempt := 0; attempt < 3; attempt++ {
		mr, err := c.Get(p, ib.Extent{Addr: 0x5000, Len: 4096})
		if err != nil {
			return err
		}
		sendErr := qp.Send(p, 4096, mr.LKey)
		if putErr := c.Put(p, mr); putErr != nil {
			return putErr
		}
		if sendErr == nil {
			return nil
		}
		qp.Reset(p)
	}
	return nil
}

// okRangeBody mirrors a per-item staging loop: one buffer per ranged item,
// put back inside the body, with an error path that puts it back early.
// The range head must not re-observe the body's releases as phantom double
// releases.
func okRangeBody(p *sim.Proc, pool *ib.BufPool, qp *ib.QP, xs []int) error {
	for _, x := range xs {
		buf := pool.Get(p)
		if err := qp.Send(p, x, nil); err != nil {
			buf.Put()
			return err
		}
		buf.Put()
	}
	return nil
}
