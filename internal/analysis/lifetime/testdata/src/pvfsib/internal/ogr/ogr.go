// Package ogr is a test stub: just enough of the optimistic group
// registration surface for the lifetime analyzer's type checks to engage.
package ogr

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/sim"
)

type Result struct {
	MRs           []*ib.MR
	Registrations int
}

type Registrar interface {
	Register(p *sim.Proc, e ib.Extent) (*ib.MR, error)
	Release(p *sim.Proc, mr *ib.MR) error
}

type Direct struct {
	HCA *ib.HCA
}

func (d Direct) Register(p *sim.Proc, e ib.Extent) (*ib.MR, error) {
	return d.HCA.Register(p, e)
}

func (d Direct) Release(p *sim.Proc, mr *ib.MR) error {
	return d.HCA.Deregister(p, mr)
}

func RegisterBuffers(p *sim.Proc, reg Registrar, n int) (*Result, error) {
	return &Result{}, nil
}

func Release(p *sim.Proc, reg Registrar, res *Result) error { return nil }
