// Package simtest holds the steady-state allocation check the AllocFree
// tests of the simulator's packages share: each drives its data path
// through testing.AllocsPerRun after a warm-up that fills the free lists
// and queue backing arrays, and fails on any allocation left.
package simtest

import (
	"testing"
	"time"

	"pvfsib/internal/sim"
)

const (
	// warmups steps run before the measured ones.
	warmups = 3
	// runs is the number of steps AllocsPerRun averages over.
	runs = 20
	// horizon bounds one step's virtual time.
	horizon = 50 * time.Millisecond
)

// Measure warms step up, then fails t unless a step allocates nothing.
func Measure(t testing.TB, name string, step func()) {
	t.Helper()
	for i := 0; i < warmups; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Errorf("%s: %.1f allocs per steady-state step, want 0", name, avg)
	}
}

// AllocFree runs batch in one process of eng once per step and fails t
// unless a steady-state step allocates nothing. A step lets the engine run
// for a bounded virtual time, which batch must finish within; a sleeper
// with a far-future wake keeps an event queued, so the run stops at the
// horizon instead of reporting the batch's own process, parked between
// steps, as a deadlock. A batch that needs set-up in its process (opening a file) does
// it on its first call; the warm-up steps absorb it.
func AllocFree(t testing.TB, eng *sim.Engine, name string, batch func(p *sim.Proc)) {
	t.Helper()
	eng.Go("keepalive", func(p *sim.Proc) {
		for {
			p.Sleep(10 * time.Hour)
		}
	})
	ctl := eng.NewMailbox(name + " ctl")
	done := eng.NewMailbox(name + " done")
	eng.Go(name, func(p *sim.Proc) {
		for {
			v := ctl.Recv(p)
			batch(p)
			done.Send(v)
		}
	})
	var token any = 1
	var stepErr error
	missed := false
	Measure(t, name, func() {
		ctl.Send(token)
		if err := eng.RunUntil(eng.Now().Add(horizon)); err != nil {
			stepErr = err
		}
		if _, ok := done.TryRecv(); !ok {
			missed = true
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if missed {
		t.Fatalf("%s: a step ended before its batch completed", name)
	}
}
