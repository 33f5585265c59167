package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*time.Microsecond) {
		t.Errorf("woke at %v, want 5µs", at)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("time advanced to %v on zero/negative sleep", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(Time(30), func() { order = append(order, 3) })
	e.Schedule(Time(10), func() { order = append(order, 1) })
	e.Schedule(Time(20), func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestEqualTimeEventsRunFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(100), func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestMailboxDeliversInOrder(t *testing.T) {
	e := NewEngine()
	mb := e.NewMailbox("mb")
	var got []int
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(p).(int))
		}
	})
	e.Go("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Microsecond)
			mb.Send(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("got %v, want [1 2 3]", got)
	}
}

func TestMailboxRecvBlocksUntilSend(t *testing.T) {
	e := NewEngine()
	mb := e.NewMailbox("mb")
	var recvAt Time
	e.Go("recv", func(p *Proc) {
		mb.Recv(p)
		recvAt = p.Now()
	})
	e.Go("send", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		mb.Send("hi")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != Time(42*time.Microsecond) {
		t.Errorf("recv completed at %v, want 42µs", recvAt)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	e := NewEngine()
	mb := e.NewMailbox("mb")
	if _, ok := mb.TryRecv(); ok {
		t.Error("TryRecv on empty mailbox reported ok")
	}
	mb.Send(7)
	v, ok := mb.TryRecv()
	if !ok || v.(int) != 7 {
		t.Errorf("TryRecv = %v, %v; want 7, true", v, ok)
	}
	if mb.Len() != 0 {
		t.Errorf("Len = %d after drain, want 0", mb.Len())
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("disk", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Microsecond)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond)}
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("user %d finished at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("cpu", 2)
	var last Time
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Microsecond)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 jobs of 10µs on 2 servers => makespan 20µs.
	if last != Time(20*time.Microsecond) {
		t.Errorf("makespan = %v, want 20µs", last)
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.GoAt(Time(i), "user", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(100)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v not FIFO", order)
		}
	}
}

func TestReleaseIdleResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on releasing idle resource")
		}
	}()
	e := NewEngine()
	r := e.NewResource("r", 1)
	r.Release()
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	wg.Add(3)
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * 10 * time.Microsecond
		e.Go("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != Time(30*time.Microsecond) {
		t.Errorf("waiter woke at %v, want 30µs", doneAt)
	}
}

func TestWaitGroupZeroDoesNotBlock(t *testing.T) {
	e := NewEngine()
	wg := e.NewWaitGroup()
	ran := false
	e.Go("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("Wait blocked with zero count")
	}
}

func TestCondSignalAndBroadcast(t *testing.T) {
	e := NewEngine()
	c := e.NewCond()
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Sleep(time.Microsecond)
		c.Signal()
		p.Sleep(time.Microsecond)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	mb := e.NewMailbox("never")
	e.Go("stuck", func(p *Proc) {
		mb.Recv(p)
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Errorf("Parked = %v, want [stuck]", de.Parked)
	}
}

// TestParkedDaemonsAreNotDeadlocked: a daemon parked for good does not make
// a run a deadlock, and a deadlock names only the processes that are not
// daemons.
func TestParkedDaemonsAreNotDeadlocked(t *testing.T) {
	e := NewEngine()
	work := e.NewMailbox("work")
	e.GoDaemonOn(e.DefaultGroup(), "server", func(p *Proc) {
		for {
			work.Recv(p)
		}
	})
	e.Go("client", func(p *Proc) { work.Send(1) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v with only a daemon parked", err)
	}
	never := e.NewMailbox("never")
	e.Go("stuck", func(p *Proc) { never.Recv(p) })
	de, ok := e.Run().(*DeadlockError)
	if !ok || len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Errorf("Run() = %v, want a deadlock naming [stuck]", de)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic from crashed process")
		}
	}()
	e := NewEngine()
	e.Go("boom", func(p *Proc) {
		panic("kaboom")
	})
	_ = e.Run()
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(Time(10), func() { fired++ })
	e.Schedule(Time(1000), func() { fired++ })
	if err := e.RunUntil(Time(100)); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != Time(100) {
		t.Errorf("Now = %v, want 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestGoAtStartsLater(t *testing.T) {
	e := NewEngine()
	var started Time
	e.GoAt(Time(77), "late", func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != Time(77) {
		t.Errorf("started at %v, want 77", started)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	depth := 0
	var spawn func(p *Proc, n int)
	spawn = func(p *Proc, n int) {
		if n == 0 {
			return
		}
		p.Sleep(time.Microsecond)
		depth++
		e.Go("child", func(q *Proc) { spawn(q, n-1) })
	}
	e.Go("root", func(p *Proc) { spawn(p, 5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500)
	if tm.Add(500).Sub(tm) != 500 {
		t.Error("Add/Sub mismatch")
	}
	if Time(2e9).Seconds() != 2.0 {
		t.Errorf("Seconds = %v, want 2", Time(2e9).Seconds())
	}
	if Time(time.Second).String() != "1s" {
		t.Errorf("String = %q", Time(time.Second).String())
	}
}

func TestShutdownTerminatesParkedProcs(t *testing.T) {
	e := NewEngine()
	mb := e.NewMailbox("work")
	var cleanupRan bool
	e.Go("daemon", func(p *Proc) {
		defer func() { cleanupRan = true }()
		for {
			mb.Recv(p)
		}
	})
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Hour) // will be cut short by Shutdown after RunUntil
	})
	if err := e.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !cleanupRan {
		t.Error("daemon's deferred cleanup did not run on Shutdown")
	}
	nParked, live := 0, 0
	for _, s := range e.shards {
		nParked += s.nParked
		live += len(s.procs)
	}
	if nParked != 0 {
		t.Errorf("%d processes still parked after Shutdown", nParked)
	}
	if live != 0 {
		t.Errorf("live = %d after Shutdown, want 0", live)
	}
}

func TestShutdownOnIdleEngine(t *testing.T) {
	e := NewEngine()
	e.Go("quick", func(p *Proc) { p.Sleep(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown() // nothing parked: must not hang or panic
}

// TestShardedEngineRerun: one engine, several Run phases with fresh
// processes spawned between them. The shard workers must come back up
// after every Run (a stop is a message on the work channel, not a close),
// and the post-run clock sync must keep every phase byte-identical to the
// single-shard engine.
func TestShardedEngineRerun(t *testing.T) {
	run := func(shards int) string {
		e := NewEngine()
		if shards > 1 {
			e.SetShards(shards)
			e.SetLookahead(6 * time.Microsecond)
		}
		gs := make([]*Group, 4)
		for i := range gs {
			gs[i] = e.AddGroup(fmt.Sprintf("g%d", i))
		}
		ends := make([]Time, len(gs))
		out := ""
		for phase := 0; phase < 3; phase++ {
			for i, g := range gs {
				i := i
				d := time.Duration(i+1+phase) * 10 * time.Microsecond
				e.GoOn(g, fmt.Sprintf("p%d-%d", phase, i), func(p *Proc) {
					p.Sleep(d)
					ends[i] = p.Now()
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("phase%d now=%d ends=%v\n", phase, int64(e.Now()), ends)
		}
		return out
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != want {
			t.Fatalf("shards=%d diverges across reruns:\n--- got ---\n%s--- want ---\n%s", shards, got, want)
		}
	}
}
