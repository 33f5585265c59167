// Package ogr implements Optimistic Group Registration (Section 4.2.2 of
// the paper), the library-controlled scheme that makes RDMA Gather/Scatter
// affordable for list-I/O buffers.
//
// The scheme has three steps:
//
//  1. Sort the buffers by address and group them into candidate regions.
//     A gap ("hole") between consecutive buffers is swallowed into the
//     group when registering the extra hole pages is cheaper than paying
//     another registration operation: holePages·(a_reg+a_dereg) <
//     (b_reg+b_dereg), using the cost model T = a·p + b.
//  2. Optimistically register each candidate region in one operation.
//  3. If a registration fails (the region spans pages the application
//     never allocated), either fall back to registering each buffer
//     individually (few buffers), or query the operating system for the
//     true holes and register exactly the allocated runs (many buffers).
//
// The common case — all buffers carved from one malloc'd array — costs a
// single registration.
package ogr

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
)

// Registrar abstracts how regions are pinned: directly against an HCA, or
// through a pin-down cache.
type Registrar interface {
	// Register pins the extent, charging registration cost to p.
	Register(p *sim.Proc, e mem.Extent) (*ib.MR, error)
	// Release undoes Register. A direct registrar deregisters; a caching
	// registrar only drops a reference.
	Release(p *sim.Proc, mr *ib.MR) error
}

// Direct registers straight against an HCA, deregistering on Release.
type Direct struct{ HCA *ib.HCA }

// Register implements Registrar.
func (d Direct) Register(p *sim.Proc, e mem.Extent) (*ib.MR, error) {
	return d.HCA.Register(p, e)
}

// Release implements Registrar.
func (d Direct) Release(p *sim.Proc, mr *ib.MR) error { return d.HCA.Deregister(p, mr) }

// Cached goes through a pin-down cache: repeated use of the same buffers
// costs nothing after the first registration.
type Cached struct{ Cache *ib.RegCache }

// Register implements Registrar.
func (c Cached) Register(p *sim.Proc, e mem.Extent) (*ib.MR, error) {
	return c.Cache.Get(p, e)
}

// Release implements Registrar.
func (c Cached) Release(p *sim.Proc, mr *ib.MR) error { return c.Cache.Put(p, mr) }

// Config tunes the scheme.
type Config struct {
	// Params supplies the registration cost model used by the grouping
	// decision.
	Params ib.Params
	// SmallGroupLimit is the buffer count at or below which a failed
	// group is registered buffer-by-buffer instead of querying the OS.
	SmallGroupLimit int
	// QueryMethod selects how the OS is asked for allocation holes.
	QueryMethod mem.QueryMethod
	// DisableGrouping registers every buffer individually (the "Indiv."
	// case of Table 4); for ablations.
	DisableGrouping bool
	// WholeSpan registers one region covering everything, with no cost
	// control (the "naive scheme" of Section 4.2.2); for ablations.
	WholeSpan bool
}

// DefaultConfig returns the configuration used by the PVFS client library.
func DefaultConfig() Config {
	return Config{
		Params:          ib.DefaultParams(),
		SmallGroupLimit: 8,
		QueryMethod:     mem.QuerySyscall,
	}
}

// Result describes one completed group registration.
type Result struct {
	MRs []*ib.MR
	// Registrations counts successful registration operations.
	Registrations int
	// FailedAttempts counts optimistic registrations the OS rejected.
	FailedAttempts int
	// Queried reports whether the OS hole query fallback ran.
	Queried bool
	// RegTime is the virtual time spent registering (including failures
	// and queries).
	RegTime sim.Duration
}

// ErrBufferUnallocated reports a list-I/O buffer that is itself not backed
// by allocated memory — an application error, not a hole between buffers.
var ErrBufferUnallocated = errors.New("ogr: list I/O buffer is not allocated")

// group is a candidate region plus the buffers it covers.
type group struct {
	span mem.Extent
	bufs []mem.Extent
}

// Scratch is the reusable bookkeeping of group registration: the buffers
// sorted by address, the groups cut from them (their buffer lists are runs
// of the sorted list) and the Result with its regions. The zero value is
// ready. One registration at a time may use a Scratch, and the Result it
// returns is valid until the next RegisterBuffers on it.
type Scratch struct {
	sorted []mem.Extent
	groups []group
	res    Result
}

// planGroups sorts the buffers and greedily merges neighbours when the cost
// model favours swallowing the hole between them.
func (s *Scratch) planGroups(bufs []mem.Extent, cfg Config) []group {
	sorted := append(s.sorted[:0], bufs...)
	slices.SortFunc(sorted, compareAddr)
	s.sorted = sorted

	if cfg.WholeSpan {
		// The buffer that starts last need not end last.
		span := sorted[0]
		for _, b := range sorted[1:] {
			span.Len = max(span.Len, int64(b.End()-span.Addr))
		}
		s.groups = append(s.groups[:0], group{span: span, bufs: sorted})
		return s.groups
	}

	// Cost of one extra operation vs. cost per extra page registered.
	perOp := cfg.Params.RegPerOp + cfg.Params.DeregPerOp
	perPage := cfg.Params.RegPerPage + cfg.Params.DeregPerPage
	var maxHolePages int64
	if perPage > 0 {
		maxHolePages = int64(perOp / perPage)
	}
	if cfg.DisableGrouping {
		maxHolePages = -1
	}

	groups := s.groups[:0]
	start, span := 0, sorted[0]
	for i := 1; i < len(sorted); i++ {
		b := sorted[i]
		holePages := int64(0)
		if b.Addr > span.End() {
			hole := mem.Extent{Addr: span.End(), Len: int64(b.Addr - span.End())}
			holePages = hole.Pages()
		}
		if holePages <= maxHolePages {
			// Merge: extend the span to cover b.
			if b.End() > span.End() {
				span.Len = int64(b.End() - span.Addr)
			}
			continue
		}
		groups = append(groups, group{span: span, bufs: sorted[start:i]})
		start, span = i, b
	}
	s.groups = append(groups, group{span: span, bufs: sorted[start:]})
	return s.groups
}

func compareAddr(a, b mem.Extent) int { return cmp.Compare(a.Addr, b.Addr) }

// RegisterBuffers pins all the buffers using Optimistic Group Registration
// and returns the regions holding them, in a fresh Scratch. Call Release
// when the transfer completes. space must be the address space the HCA is
// bound to.
func RegisterBuffers(p *sim.Proc, reg Registrar, space *mem.AddrSpace, bufs []mem.Extent, cfg Config) (*Result, error) {
	return new(Scratch).RegisterBuffers(p, reg, space, bufs, cfg)
}

// RegisterBuffers is the package's RegisterBuffers planned in s: the Result
// is s's, valid until s registers again.
func (s *Scratch) RegisterBuffers(p *sim.Proc, reg Registrar, space *mem.AddrSpace, bufs []mem.Extent, cfg Config) (*Result, error) {
	res := &s.res
	*res = Result{MRs: res.MRs[:0]}
	if len(bufs) == 0 {
		return res, nil
	}
	for _, b := range bufs {
		if b.Len <= 0 {
			return nil, fmt.Errorf("ogr: empty buffer %v", b)
		}
	}
	t0 := p.Now()
	for _, g := range s.planGroups(bufs, cfg) {
		// Step 2: optimistic registration of the whole candidate span.
		mr, err := reg.Register(p, g.span)
		if err == nil {
			res.MRs = append(res.MRs, mr)
			res.Registrations++
			continue
		}
		if !errors.Is(err, ib.ErrNotAllocated) {
			return nil, errors.Join(err, releaseAll(p, reg, res))
		}
		res.FailedAttempts++

		// Step 3: fall back.
		if len(g.bufs) <= cfg.SmallGroupLimit {
			if err := registerEach(p, reg, g.bufs, res); err != nil {
				return nil, errors.Join(err, releaseAll(p, reg, res))
			}
			continue
		}
		res.Queried = true
		holes := space.QueryHoles(p, g.span, cfg.QueryMethod)
		for _, run := range subtractHoles(g.span, holes) {
			if !coversAnyBuffer(run, g.bufs) {
				continue
			}
			mr, err := reg.Register(p, run)
			if err != nil {
				if errors.Is(err, ib.ErrNotAllocated) {
					err = ErrBufferUnallocated
				}
				return nil, errors.Join(err, releaseAll(p, reg, res))
			}
			res.MRs = append(res.MRs, mr)
			res.Registrations++
		}
		// Every buffer must now be covered; a buffer inside a hole is an
		// application error.
		for _, b := range g.bufs {
			if !covered(b, res.MRs) {
				return nil, errors.Join(ErrBufferUnallocated, releaseAll(p, reg, res))
			}
		}
	}
	res.RegTime = p.Now().Sub(t0)
	return res, nil
}

func registerEach(p *sim.Proc, reg Registrar, bufs []mem.Extent, res *Result) error {
	for _, b := range bufs {
		mr, err := reg.Register(p, b)
		if err != nil {
			if errors.Is(err, ib.ErrNotAllocated) {
				return ErrBufferUnallocated
			}
			return err
		}
		res.MRs = append(res.MRs, mr)
		res.Registrations++
	}
	return nil
}

// Release unpins every region in the result.
func Release(p *sim.Proc, reg Registrar, res *Result) error {
	return releaseAll(p, reg, res)
}

// releaseAll releases every region, keeps going past failures, and returns
// the failures joined (nil when all releases succeed). The result keeps its
// region list's backing for the next registration in its Scratch; under
// sim.PoisonReleased the released regions are overwritten with nil.
func releaseAll(p *sim.Proc, reg Registrar, res *Result) error {
	var errs []error
	for _, mr := range res.MRs {
		if err := reg.Release(p, mr); err != nil {
			errs = append(errs, err)
		}
	}
	if sim.PoisonReleased {
		clear(res.MRs[:cap(res.MRs)])
	}
	res.MRs = res.MRs[:0]
	return errors.Join(errs...)
}

// subtractHoles returns the allocated runs of span after removing holes
// (holes are in address order, as returned by QueryHoles).
func subtractHoles(span mem.Extent, holes []mem.Extent) []mem.Extent {
	var runs []mem.Extent
	cursor := span.Addr
	for _, h := range holes {
		if h.Addr > cursor {
			runs = append(runs, mem.Extent{Addr: cursor, Len: int64(h.Addr - cursor)})
		}
		if h.End() > cursor {
			cursor = h.End()
		}
	}
	if span.End() > cursor {
		runs = append(runs, mem.Extent{Addr: cursor, Len: int64(span.End() - cursor)})
	}
	return runs
}

func coversAnyBuffer(run mem.Extent, bufs []mem.Extent) bool {
	for _, b := range bufs {
		if b.Addr >= run.Addr && b.End() <= run.End() {
			return true
		}
	}
	return false
}

func covered(b mem.Extent, mrs []*ib.MR) bool {
	for _, mr := range mrs {
		if mr.Covers(b) {
			return true
		}
	}
	return false
}
