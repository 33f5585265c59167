package sim

import "fmt"

// Must and Failf are the sanctioned escape hatch for code running inside a
// simulation process or event callback with no error path to its caller (an
// adapter's receive handler, a benchmark driver's worker). The panic unwinds through Engine.Run
// like any process failure, but keeping the call here — rather than a bare
// panic at each site — keeps the pvfslint nopanic rule meaningful: library
// code either returns a wrapped error or deliberately routes through the
// scheduler's single audited failure point.

// Must panics if err is non-nil. Use it inside simulation processes for
// errors that indicate a broken model invariant rather than a failable
// operation.
func Must(err error) {
	if err != nil {
		panic(err)
	}
}

// Failf panics with a formatted message. Use it inside simulation processes
// for fatal conditions that have no error value to propagate.
func Failf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}
