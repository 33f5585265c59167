package ib

import (
	"errors"
	"fmt"

	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// Key names a registered memory region. A single key stands in for the
// lkey/rkey pair of real verbs. Its high bits carry the region's lend
// generation, as real verbs carry a consumer-owned key byte that changes on
// every fast-register: a key lent before the region was lent again names no
// region (HCA.lookup).
type Key uint64

// genShift is where a key's generation starts. Thirty-two bits, where real
// verbs have eight, so that no run lends a buffer often enough to wrap.
const genShift = 32

// MR is a registered memory region on one HCA. Key is its generation-0
// key; a region a BufPool lends carries a generation that each lend
// advances (Buffer.Key), and every other region stays at 0.
type MR struct {
	Key    Key
	Extent mem.Extent
	hca    *HCA
	valid  bool
	gen    uint32
}

// Covers reports whether the extent lies wholly inside the region.
func (mr *MR) Covers(e mem.Extent) bool {
	return e.Addr >= mr.Extent.Addr && e.End() <= mr.Extent.End()
}

// Valid reports whether the region is still registered.
func (mr *MR) Valid() bool { return mr != nil && mr.valid }

// Registration failure causes.
var (
	// ErrNotAllocated is returned when the region touches pages the
	// application never allocated — the failure OGR's optimistic step
	// probes for.
	ErrNotAllocated = errors.New("ib: region touches unallocated memory")
	// ErrPinLimit is returned when the HCA's pinned-memory or MR-count
	// limit would be exceeded.
	ErrPinLimit = errors.New("ib: registration limit exceeded")
	// ErrRegPressure is returned when the fault plane rejects a
	// registration, modeling transient pinning pressure (the first-class
	// runtime failure NP-RDMA-style stacks handle). Unlike ErrNotAllocated
	// it is not a property of the region: retrying, or falling back to
	// pre-registered staging buffers, is the expected response.
	ErrRegPressure = errors.New("ib: registration rejected (pinning pressure)")
)

// Register pins the extent and returns a memory region handle. The calling
// process is charged the paper's cost model, T = a·pages + b. Registration
// fails with ErrNotAllocated if any touched page is unallocated; per the
// kernel's behaviour the cost of the failed attempt is still (mostly) paid,
// since the page-table walk happens before the failure is detected.
func (h *HCA) Register(p *sim.Proc, e mem.Extent) (*MR, error) {
	if e.Len <= 0 {
		return nil, fmt.Errorf("ib: register empty extent %v", e)
	}
	sp := h.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), h.node.Name, "ib.reg", trace.StageReg)
	sp.SetBytes(e.Len)
	pages := e.Pages()
	cost := h.params.RegCost(pages)
	if h.faults != nil && h.faults.RegFail(p.Now(), h.node.Name) {
		// The kernel walked the pages before giving up: charge the full
		// attempt cost, as for any failed registration.
		p.Sleep(cost)
		h.Counters.RegFailures++
		sp.EndErr(p.Now(), ErrRegPressure)
		return nil, ErrRegPressure
	}
	if !h.space.Allocated(e) {
		// The walk stops at the first bad page; charge the full per-op
		// overhead but only half the average per-page cost.
		fail := h.params.RegPerOp + (cost-h.params.RegPerOp)/2
		p.Sleep(fail)
		h.Counters.RegFailures++
		sp.EndErr(p.Now(), ErrNotAllocated)
		return nil, ErrNotAllocated
	}
	if h.pinnedBytes+pages*mem.PageSize > h.params.MaxPinnedBytes ||
		len(h.mrs) >= h.params.MaxMRs {
		h.Counters.RegFailures++
		sp.EndErr(p.Now(), ErrPinLimit)
		return nil, ErrPinLimit
	}
	p.Sleep(cost)
	h.Counters.Registrations++
	h.Counters.RegTime += cost
	mr := h.newMR(e)
	h.mx.pinned.Set(p.Now(), h.pinnedBytes)
	if sp.Recording() {
		sp.Annotate("pages=%d", pages)
	}
	sp.End(p.Now())
	return mr, nil
}

// RegisterStatic pins the extent without charging virtual time, for
// buffers registered once at system setup (staging pools, connection
// buffers). Setup-time costs are irrelevant to the experiments; per-
// operation costs are what the paper measures. The registration still
// counts against pin limits but not in the Registrations counter.
func (h *HCA) RegisterStatic(e mem.Extent) (*MR, error) {
	if e.Len <= 0 || !h.space.Allocated(e) {
		return nil, fmt.Errorf("ib: RegisterStatic of invalid extent %v: %w", e, ErrNotAllocated)
	}
	return h.newMR(e), nil
}

// newMR pins e under the next key, in a record from the HCA's free list. A
// recycled record takes a key no region has had, so a stale key held by a
// peer still names no region.
func (h *HCA) newMR(e mem.Extent) *MR {
	h.nextKey++
	mr := h.freeMRs.Take()
	*mr = MR{Key: h.nextKey, Extent: e, hca: h, valid: true}
	h.mrs[mr.Key] = mr
	h.pinnedBytes += e.Pages() * mem.PageSize
	return mr
}

// ErrInvalidMR is returned by Deregister for a region that was never
// registered on this HCA or was already deregistered.
var ErrInvalidMR = errors.New("ib: deregister of invalid MR")

// Deregister unpins the region, charging the deregistration cost. The MR
// goes back to the HCA's free list, so the caller must drop it: a later
// Register may hand the same record out again. Until then it reads invalid,
// and under sim.PoisonReleased its key and extent are cleared as well.
func (h *HCA) Deregister(p *sim.Proc, mr *MR) error {
	if !mr.Valid() {
		return ErrInvalidMR
	}
	sp := h.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), h.node.Name, "ib.dereg", trace.StageReg)
	sp.SetBytes(mr.Extent.Len)
	cost := h.params.DeregCost(mr.Extent.Pages())
	p.Sleep(cost)
	sp.End(p.Now())
	mr.valid = false
	delete(h.mrs, mr.Key)
	h.pinnedBytes -= mr.Extent.Pages() * mem.PageSize
	h.mx.pinned.Set(p.Now(), h.pinnedBytes)
	h.Counters.Deregistrations++
	h.Counters.DeregTime += cost
	if sim.PoisonReleased {
		*mr = MR{}
	}
	h.freeMRs.Put(mr)
	return nil
}

// lookup returns the MR for key, or nil if none is registered under it or
// the key's generation is not the region's current one: a stale key names
// no region, as a deregistered one does.
func (h *HCA) lookup(key Key) *MR {
	mr := h.mrs[key&(1<<genShift-1)]
	if mr == nil || Key(mr.gen) != key>>genShift {
		return nil
	}
	return mr
}

// checkRemote checks an RDMA that names this HCA's memory: the key is
// current and its region covers the extent.
func (h *HCA) checkRemote(key Key, e mem.Extent) error {
	if mr := h.lookup(key); !mr.Valid() || !mr.Covers(e) {
		return fmt.Errorf("rkey %#x names no registered region covering %v", uint64(key), e)
	}
	return nil
}

// coveredLocally reports whether the extent lies inside some registered MR.
func (h *HCA) coveredLocally(e mem.Extent) bool {
	for _, mr := range h.mrs {
		if mr.Covers(e) {
			return true
		}
	}
	return false
}

// PinnedBytes reports the total currently pinned memory.
func (h *HCA) PinnedBytes() int64 { return h.pinnedBytes }

// NumMRs reports the number of live registrations.
func (h *HCA) NumMRs() int { return len(h.mrs) }
