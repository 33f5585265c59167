// Package sim is a test stub: just enough of the simulator's surface for
// the lockorder analyzer's type checks to engage.
package sim

type Proc struct{}

type Duration int64

type Resource struct {
	inUse int
}

func (r *Resource) Acquire(p *Proc)         {}
func (r *Resource) Release()                {}
func (r *Resource) Use(p *Proc, d Duration) {}
func (r *Resource) InUse() int              { return r.inUse }

type Mailbox struct{}

func (m *Mailbox) Recv(p *Proc) any { return nil }
func (m *Mailbox) Send(v any)       {}

type Cond struct{}

func (c *Cond) Wait(p *Proc) {}

type WaitGroup struct{}

func (w *WaitGroup) Wait(p *Proc) {}
func (w *WaitGroup) Done()        {}
