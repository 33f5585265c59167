// Package ib is a test stub: just enough of the InfiniBand model's surface
// for the lifetime analyzer's type checks to engage. Corpora cannot import
// the standard library, so the stub declares its own error value.
package ib

import "pvfsib/internal/sim"

type ibError string

func (e ibError) Error() string { return string(e) }

var ErrInvalidMR error = ibError("invalid MR")

type Addr uint64

type Key uint64

type Extent struct {
	Addr Addr
	Len  int
}

type MR struct {
	LKey Key
}

func (mr *MR) Valid() bool { return mr != nil }

type HCA struct{}

func (h *HCA) Register(p *sim.Proc, e Extent) (*MR, error) { return &MR{}, nil }
func (h *HCA) RegisterStatic(e Extent) (*MR, error)        { return &MR{}, nil }
func (h *HCA) Deregister(p *sim.Proc, mr *MR) error        { return nil }

type RegCache struct{}

func (c *RegCache) Get(p *sim.Proc, e Extent) (*MR, error) { return &MR{}, nil }
func (c *RegCache) Put(p *sim.Proc, mr *MR) error          { return nil }

type Buffer struct {
	Addr Addr
	Size int
}

func (b *Buffer) Put() {}

type BufPool struct{}

func (bp *BufPool) Get(p *sim.Proc) *Buffer { return &Buffer{} }

// Fault-plane surface: queue pairs move to an error state on an injected
// completion error; Reset recovers the endpoint but has no effect on
// registrations or staging buffers.

type QPState int

const (
	QPReady QPState = iota
	QPError
)

type QP struct{}

func (q *QP) State() QPState                       { return QPReady }
func (q *QP) Reset(p *sim.Proc)                    {}
func (q *QP) Send(p *sim.Proc, n int, m any) error { return nil }
