// Package sim is a test stub: just enough of the simulator's surface for
// the lifetime analyzer's type checks to engage.
package sim

type Time int64

type Proc struct{}

func (p *Proc) Now() Time { return 0 }

func Failf(format string, args ...any) {}
