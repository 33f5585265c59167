package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestSleepBeyondBoundIsNotTakenInline: a Sleep whose expiry is the next
// event may be taken inline only if the run would have executed that event.
// Past the RunUntil limit, or after Stop, it must stay queued.
func TestSleepBeyondBoundIsNotTakenInline(t *testing.T) {
	t.Run("limit", func(t *testing.T) {
		e := NewEngine()
		defer e.Shutdown()
		var woke []Time
		e.Go("p", func(p *Proc) {
			p.Sleep(5 * time.Microsecond) // expires exactly at the limit: runs
			woke = append(woke, p.Now())
			p.Sleep(5 * time.Microsecond) // expires beyond it: stays queued
			woke = append(woke, p.Now())
		})
		limit := Time(5 * time.Microsecond)
		if err := e.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		if len(woke) != 1 || woke[0] != limit {
			t.Fatalf("woke at %v inside RunUntil(%v), want [%v]", woke, limit, limit)
		}
		if e.Now() != limit || e.Pending() != 1 {
			t.Fatalf("Now = %v, Pending = %d; want %v, 1", e.Now(), e.Pending(), limit)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(woke) != 2 || woke[1] != Time(10*time.Microsecond) {
			t.Fatalf("woke at %v after Run, want second wake at 10µs", woke)
		}
	})
	t.Run("stop", func(t *testing.T) {
		e := NewEngine()
		defer e.Shutdown()
		resumed := false
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Microsecond)
			e.Stop()
			p.Sleep(time.Microsecond)
			resumed = true
		})
		_ = e.Run() // a stopped run reports the processes it abandoned
		if resumed || e.Now() != Time(time.Microsecond) || e.Pending() != 1 {
			t.Fatalf("after Stop: resumed=%v Now=%v Pending=%d; want false, 1µs, 1", resumed, e.Now(), e.Pending())
		}
	})
}

// TestInlineWakesAreCounted: a wake taken inline is still an executed
// event — one for the spawn and one per Sleep, at every shard count — and
// telemetry says which of them switched: unsharded only the spawn does, and
// a window's end forces a switch on the Sleep that crosses it.
func TestInlineWakesAreCounted(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e := NewEngine()
		e.SetShards(shards)
		e.SetLookahead(6 * time.Microsecond)
		e.GoOn(e.AddGroup("g"), "p", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		tm := e.Telemetry()
		if tm.TotalEvents() != 101 {
			t.Errorf("shards=%d: %d events, want 101", shards, tm.TotalEvents())
		}
		if tm.Resumes+tm.InlineWakes != 101 || tm.Resumes < 1 || shards == 1 && tm.Resumes != 1 {
			t.Errorf("shards=%d: %d resumes + %d inline wakes, want 101 in all, one resume unsharded", shards, tm.Resumes, tm.InlineWakes)
		}
		if shards > 1 && tm.Shards[0].MaxWindowEvents < 2 {
			t.Errorf("shards=%d: max window events %d: inline wakes missing from the window count", shards, tm.Shards[0].MaxWindowEvents)
		}
		e.Shutdown()
	}
}

// waitGoroutines polls until the goroutine count is back at want: the
// sharded loop's workers exit on their own time after Run returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 1000 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("%d goroutines, want %d: carriers outlived Shutdown", got, want)
	}
}

// TestShutdownStopsCarriers: Shutdown unwinds parked bodies (their deferred
// functions run exactly once) and ends idle carriers, so no goroutine of
// the engine's survives it; a process spawned after another has returned
// takes over its carrier, record included.
func TestShutdownStopsCarriers(t *testing.T) {
	for _, shards := range []int{1, 2} {
		base := runtime.NumGoroutine()
		e := NewEngine()
		e.SetShards(shards)
		e.SetLookahead(6 * time.Microsecond)
		g := e.AddGroup("g")
		deferred := map[string]int{}
		body := func(block func(p *Proc)) func(p *Proc) {
			return func(p *Proc) {
				defer func() { deferred[p.Name()]++ }()
				block(p)
			}
		}
		mb := e.NewMailbox("never")
		e.GoOn(g, "daemon", body(func(p *Proc) { mb.Recv(p) }))
		e.GoOn(g, "sleeper", body(func(p *Proc) { p.Sleep(time.Hour) }))
		var first, second *Proc
		var firstCarrier, secondCarrier *carrier
		e.GoOn(g, "parent", body(func(p *Proc) {
			p.Go("first", body(func(q *Proc) { first, firstCarrier = q, q.c }))
			p.Sleep(time.Microsecond) // first has returned: its carrier is idle
			p.Go("second", body(func(q *Proc) { second, secondCarrier = q, q.c }))
			p.Sleep(time.Microsecond)
		}))
		if err := e.RunUntil(Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		if firstCarrier == nil || firstCarrier != secondCarrier {
			t.Errorf("shards=%d: second ran on carrier %p, want first's idle carrier %p", shards, secondCarrier, firstCarrier)
		}
		if first != second || first != &firstCarrier.p {
			t.Errorf("shards=%d: second's record %p, want first's %p inside their carrier", shards, second, first)
		}
		e.Shutdown()
		for _, name := range []string{"daemon", "sleeper", "parent", "first", "second"} {
			if deferred[name] != 1 {
				t.Errorf("shards=%d: deferred function of %q ran %d times, want 1", shards, name, deferred[name])
			}
		}
		waitGoroutines(t, base)
	}
}

// TestShutdownBeforeFirstEvent: a process whose first event never ran has
// no body to unwind; Shutdown must neither run it nor wait for it.
func TestShutdownBeforeFirstEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	e.GoAt(Time(time.Hour), "late", func(p *Proc) { ran = true })
	if err := e.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if ran {
		t.Error("Shutdown ran the body of a process that had not started")
	}
}

// TestShutdownEndsUnstartedProcesses: a process spawned for a time past the
// engine's last run has a carrier but no body under way — a fresh one, or
// the idle carrier of a process that returned. Shutdown ends both kinds, so
// fifty such engines leave no goroutine behind.
func TestShutdownEndsUnstartedProcesses(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	ran := 0
	for i := 0; i < 50; i++ {
		e := NewEngine()
		e.Go("first", func(p *Proc) { p.Sleep(time.Microsecond) })
		if i%2 == 0 { // before the run: a carrier of its own
			e.GoAt(Time(time.Hour), "late", func(p *Proc) { ran++ })
		}
		if err := e.RunUntil(Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 { // after it: first's idle carrier
			e.GoAt(Time(time.Hour), "late", func(p *Proc) { ran++ })
			if err := e.RunUntil(Time(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		e.Shutdown()
		if live := len(e.shards[0].procs); live != 0 {
			t.Fatalf("engine %d: %d processes listed after Shutdown", i, live)
		}
	}
	if ran != 0 {
		t.Errorf("Shutdown ran %d bodies of processes that had not started", ran)
	}
	runtime.GC()
	waitGoroutines(t, base)
}

// runPanic runs the engine and returns what Run panicked with.
func runPanic(t *testing.T, e *Engine) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Error("Run returned, want a panic")
		}
	}()
	_ = e.Run()
	return nil
}

// TestBodyPanicRetiresCarrier: Run re-panics with the process's name, and
// the carrier the body died on is not handed to another process.
func TestBodyPanicRetiresCarrier(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	var died *carrier
	e.Go("boom", func(p *Proc) {
		died = p.c
		panic("kaboom")
	})
	r := runPanic(t, e)
	if want := `sim: process "boom" panicked: kaboom`; r != want {
		t.Errorf("Run panicked with %v, want %q", r, want)
	}
	for _, c := range e.shards[0].carriers.free {
		if c == died {
			t.Error("the carrier of a panicked body went back on the free list")
		}
	}
}

// TestCallbackPanicKeepsItsValue: a timer callback runs on the shard loop,
// not on a carrier, and its panic surfaces from Run untouched.
func TestCallbackPanicKeepsItsValue(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	errBoom := errors.New("boom")
	e.Go("bystander", func(p *Proc) { p.Sleep(time.Second) })
	e.After(time.Microsecond, func() { panic(errBoom) })
	if r := runPanic(t, e); r != errBoom {
		t.Errorf("Run panicked with %v, want the callback's own value", r)
	}
}

// TestBlockingOutsideOwnProcessFails: Sleep, Recv or Acquire from a timer
// callback, or on another process's handle, used to hang the run (or, with
// coroutines, would suspend the wrong one); it fails by name instead.
func TestBlockingOutsideOwnProcessFails(t *testing.T) {
	cases := []struct {
		name  string
		block func(e *Engine, q *Proc)
		want  string
	}{
		{"Sleep", func(e *Engine, q *Proc) { q.Sleep(time.Microsecond) }, `sim: Sleep of "q" called outside its own process`},
		{"Recv", func(e *Engine, q *Proc) { e.NewMailbox("mb").Recv(q) }, `sim: park of "q" called outside its own process`},
		{"Acquire", func(e *Engine, q *Proc) {
			r := e.NewResource("r", 1)
			r.Acquire(q)
			r.Acquire(q)
		}, `sim: park of "q" called outside its own process`},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/callback", func(t *testing.T) {
			e := NewEngine()
			defer e.Shutdown()
			var q *Proc
			e.Go("q", func(p *Proc) { q = p; p.Sleep(time.Second) })
			e.After(time.Microsecond, func() { tc.block(e, q) })
			if r := runPanic(t, e); r != tc.want {
				t.Errorf("Run panicked with %v, want %q", r, tc.want)
			}
		})
		t.Run(tc.name+"/other process", func(t *testing.T) {
			e := NewEngine()
			defer e.Shutdown()
			var q *Proc
			e.Go("q", func(p *Proc) { q = p; p.Sleep(time.Second) })
			e.Go("intruder", func(p *Proc) {
				p.Sleep(time.Microsecond)
				tc.block(e, q)
			})
			want := fmt.Sprintf(`sim: process "intruder" panicked: %s`, tc.want)
			if r := runPanic(t, e); r != want {
				t.Errorf("Run panicked with %v, want %q", r, want)
			}
		})
	}
}
