package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkEventHeap measures the engine's raw event turnover: a chain of
// timed callbacks, each scheduling its successor. Exercises the event free
// list and the heap push/pop path.
func BenchmarkEventHeap(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, step)
		}
	}
	b.ResetTimer()
	e.After(time.Microsecond, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// The switch loops below are what a process switch costs, one shape each.
// Every loop builds its own engine, runs n iterations and shuts down, so
// BenchmarkX reports the per-iteration cost and TestSwitchAllocFree can
// assert that a run's allocations do not grow with n.
var switchLoops = map[string]func(n int) error{
	"Sleep":     sleepLoop,
	"Mailbox":   mailboxLoop,
	"Resource":  resourceLoop,
	"AfterCall": afterCallLoop,
	"Spawn":     spawnLoop,
	"TimedWait": timedWaitLoop,
}

// sleepLoop is one process sleeping n times with nothing else queued: every
// expiry is next in line, the self-wake path.
func sleepLoop(n int) error {
	e := NewEngine()
	defer e.Shutdown()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	return e.Run()
}

// mailboxLoop is a ping-pong between two processes over two mailboxes:
// each round trip is two sends, two receives, and two park/wake cycles.
func mailboxLoop(n int) error {
	e := NewEngine()
	defer e.Shutdown()
	req := e.NewMailbox("req")
	rsp := e.NewMailbox("rsp")
	var token any = 1
	e.Go("server", func(p *Proc) {
		for i := 0; i < n; i++ {
			rsp.Send(req.Recv(p))
		}
	})
	e.Go("client", func(p *Proc) {
		for i := 0; i < n; i++ {
			req.Send(token)
			rsp.Recv(p)
		}
	})
	return e.Run()
}

// resourceLoop is contended acquire/release: two processes sharing a
// capacity-1 resource, so every acquisition after the first parks and is
// woken by the peer's release.
func resourceLoop(n int) error {
	e := NewEngine()
	defer e.Shutdown()
	r := e.NewResource("lock", 1)
	worker := func(p *Proc) {
		for i := 0; i < n/2; i++ {
			r.Acquire(p)
			p.Yield()
			r.Release()
		}
	}
	e.Go("a", worker)
	e.Go("b", worker)
	return e.Run()
}

// afterCallLoop is a device modeled without a process: a chain of n
// callbacks on one group, each scheduling its successor with
// Group.AfterCall — no switch at all, and no closure per event.
func afterCallLoop(n int) error {
	e := NewEngine()
	defer e.Shutdown()
	d := &callbackDevice{g: e.AddGroup("dev"), left: n}
	d.g.AfterCall(time.Microsecond, deviceTick, d)
	return e.Run()
}

type callbackDevice struct {
	g    *Group
	left int
}

func deviceTick(v any) {
	d := v.(*callbackDevice)
	if d.left--; d.left > 0 {
		d.g.AfterCall(time.Microsecond, deviceTick, d)
	}
}

// spawnLoop spawns n children one after the other, each finished before
// the next starts: after the first, every spawn reuses the idle carrier and
// the process record inside it.
func spawnLoop(n int) error {
	e := NewEngine()
	defer e.Shutdown()
	wg := e.NewWaitGroup()
	child := func(*Proc) { wg.Done() }
	e.Go("parent", func(p *Proc) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			p.Go("child", child)
			wg.Wait(p)
		}
	})
	return e.Run()
}

// timedWaitLoop is n timed waits on one mailbox, every other one woken by
// a Send and the rest expiring: the sender sends every 3µs, 1µs into a
// wait, and the next wait expires 2µs later, each after the timer of the
// wait before it has gone off stale.
func timedWaitLoop(n int) error {
	e := NewEngine()
	defer e.Shutdown()
	mb := e.NewMailbox("mb")
	var token any = 1
	e.Go("sender", func(p *Proc) {
		for i := 0; i < n; i += 2 {
			p.Sleep(time.Microsecond)
			mb.Send(token)
			p.Sleep(2 * time.Microsecond)
		}
	})
	var err error
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < n; i++ {
			if _, ok := mb.RecvTimeout(p, 2*time.Microsecond); ok != (i%2 == 0) && err == nil {
				err = fmt.Errorf("wait %d at %v: ok=%v, want every other wait to time out", i, p.Now(), ok)
			}
		}
	})
	if runErr := e.Run(); runErr != nil {
		return runErr
	}
	return err
}

func benchLoop(b *testing.B, loop func(n int) error) {
	b.ReportAllocs()
	if err := loop(b.N); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSleep(b *testing.B)     { benchLoop(b, sleepLoop) }
func BenchmarkMailbox(b *testing.B)   { benchLoop(b, mailboxLoop) }
func BenchmarkResource(b *testing.B)  { benchLoop(b, resourceLoop) }
func BenchmarkAfterCall(b *testing.B) { benchLoop(b, afterCallLoop) }
func BenchmarkSpawn(b *testing.B)     { benchLoop(b, spawnLoop) }
func BenchmarkTimedWait(b *testing.B) { benchLoop(b, timedWaitLoop) }

// TestSwitchAllocFree: Sleep, Mailbox, Resource, AfterCall, spawns and
// timed waits allocate to set up (the engine, its processes, their
// carriers) and nothing per switch, callback, spawn or wait, so a run of
// 20000 iterations allocates exactly what a run of 200 does.
func TestSwitchAllocFree(t *testing.T) {
	for name, loop := range switchLoops {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := loop(n); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
		if short, long := allocs(200), allocs(20000); long != short {
			t.Errorf("%s: %.0f allocations for 20000 iterations, %.0f for 200: want 0 allocs/op", name, long, short)
		}
	}
}

// cellWorkload populates the engine with the shape of one storage cell:
// nIOD server groups and nClient client groups, each running one process
// that advances steps timed events with work iterations of local compute
// per event. Traffic is shard-local — the best case sharding is graded
// on. The xor-shift fold keeps the compiler from deleting the work.
func cellWorkload(e *Engine, nIOD, nClient, steps, work int, sink *uint64) {
	spawn := func(kind string, i int) {
		g := e.AddGroup(fmt.Sprintf("%s%d", kind, i))
		seed := uint64(i)*2654435761 + 1
		e.GoOn(g, fmt.Sprintf("%s-p%d", kind, i), func(p *Proc) {
			h := seed
			for s := 0; s < steps; s++ {
				for w := 0; w < work; w++ {
					h ^= h << 13
					h ^= h >> 7
					h ^= h << 17
				}
				p.Sleep(time.Microsecond)
			}
			atomic.AddUint64(sink, h)
		})
	}
	for i := 0; i < nIOD; i++ {
		spawn("iod", i)
	}
	for i := 0; i < nClient; i++ {
		spawn("cn", i)
	}
}

// benchmarkShardedCell measures event throughput on a 10-iod/100-client
// cell (the 100/1000 cell of the scaling study at a tenth scale, so
// per-op numbers stabilize quickly) at the given shard count.
func benchmarkShardedCell(b *testing.B, shards int) {
	b.ReportAllocs()
	e := NewEngine()
	if shards > 1 {
		e.SetShards(shards)
		e.SetLookahead(6 * time.Microsecond)
	}
	const nIOD, nClient = 10, 100
	steps := b.N/(nIOD+nClient) + 1
	var sink uint64
	cellWorkload(e, nIOD, nClient, steps, 150, &sink)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkShardedCell1(b *testing.B) { benchmarkShardedCell(b, 1) }
func BenchmarkShardedCell2(b *testing.B) { benchmarkShardedCell(b, 2) }
func BenchmarkShardedCell4(b *testing.B) { benchmarkShardedCell(b, 4) }

// TestShardedCellThroughput runs the full 100-iod/1000-client cell once
// single-sharded and once on 4 shards, reports the speedup, and — on
// hosts with at least 4 CPUs — asserts the parallel engine pays for
// itself. Wall-clock measurement is host diagnostics, never simulation
// output, so determinism is unaffected.
func TestShardedCellThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full cell twice")
	}
	run := func(shards int) time.Duration {
		e := NewEngine()
		if shards > 1 {
			e.SetShards(shards)
			e.SetLookahead(6 * time.Microsecond)
		}
		var sink uint64
		cellWorkload(e, 100, 1000, 50, 150, &sink)
		start := time.Now()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	t1, t4 := run(1), run(4)
	speedup := float64(t1) / float64(t4)
	t.Logf("cell 100x1000: 1 shard %v, 4 shards %v, speedup %.2fx (NumCPU=%d)",
		t1, t4, speedup, runtime.NumCPU())
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; the 4-shard speedup assertion needs at least 4", runtime.NumCPU())
	}
	if speedup < 2.5 {
		t.Errorf("4-shard speedup %.2fx, want >= 2.5x on a %d-CPU host", speedup, runtime.NumCPU())
	}
}
