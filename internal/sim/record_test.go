package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// forShards runs body on a fresh engine at one and four shards, once per
// group with one group per shard (so that a group's processes alone trade
// its shard's carriers), and checks the engine's free lists at the end: no
// event, carrier or timeout record is out.
func forShards(t *testing.T, body func(t *testing.T, e *Engine, g *Group)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := NewEngine()
			defer e.Shutdown()
			e.SetShards(shards)
			e.SetLookahead(time.Microsecond)
			for i := 0; i < shards; i++ {
				body(t, e, e.AddGroup(fmt.Sprintf("g%d", i)))
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			e.Census(func(pool string, out int64) {
				if out != 0 {
					t.Errorf("%s: %d taken and not recycled at quiescence", pool, out)
				}
			})
		})
	}
}

// TestReusedRecordCarriesNothingOver: a process spawned after another has
// returned gets the same record, and none of the last body's state — name,
// trace context, parked and sleeping flags, place in the shard's process
// list, timed wait — is visible to it.
func TestReusedRecordCarriesNothingOver(t *testing.T) {
	forShards(t, func(t *testing.T, e *Engine, g *Group) {
		mb := e.NewMailbox("mb")
		var first *Proc
		e.GoOn(g, "bystander", func(p *Proc) { p.Sleep(10 * time.Microsecond) })
		e.GoOn(g, "parent", func(p *Proc) {
			p.Go("first", func(q *Proc) {
				first = q
				q.SetTraceCtx(0xfeed)
				mb.Recv(q)
				q.Sleep(time.Microsecond)
				if _, ok := mb.RecvTimeout(q, time.Microsecond); ok {
					t.Error("first: a wait with nothing sent returned a message")
				}
			})
			// sibling outlives first, so first's place in the process list
			// goes to it.
			p.Go("sibling", func(q *Proc) { q.Sleep(10 * time.Microsecond) })
			p.Sleep(time.Microsecond)
			mb.Send(1)
			p.Sleep(5 * time.Microsecond) // first has returned: its carrier is idle
			p.Go("second", func(q *Proc) {
				if q != first {
					t.Errorf("%s: second's record %p, want first's idle record %p", g.Name(), q, first)
				}
				s := q.g.sh
				if q.Name() != "second" || q.TraceCtx() != 0 || q.parked || q.sleeping || q.wait != nil {
					t.Errorf("%s: second starts with name %q, trace context %#x, parked %v, sleeping %v, wait %p",
						g.Name(), q.Name(), q.TraceCtx(), q.parked, q.sleeping, q.wait)
				}
				if q.idx >= len(s.procs) || s.procs[q.idx] != q || q.wakeEv.proc != q || q.Group() != g {
					t.Errorf("%s: second at index %d of %d live processes, wake slot for %p", g.Name(), q.idx, len(s.procs), q.wakeEv.proc)
				}
			})
		})
	})
}

// TestStaleTimeoutLeavesCurrentWaitAlone: the timer of a wait a Send has
// already ended goes off inside a later wait — of the same body, or of the
// next body on the same record — and neither wakes nor times it out; the
// later wait ends by its own Send, or by its own timer at exactly its
// deadline.
func TestStaleTimeoutLeavesCurrentWaitAlone(t *testing.T) {
	const us = time.Microsecond
	type result struct {
		at Time
		ok bool
	}
	check := func(t *testing.T, what string, got result, at Duration, ok bool) {
		t.Helper()
		if want := (result{Time(at), ok}); got != want {
			t.Errorf("%s ended at %v with ok=%v, want %v and ok=%v", what, got.at, got.ok, want.at, want.ok)
		}
	}
	wait := func(mb *Mailbox, p *Proc, d Duration) result {
		_, ok := mb.RecvTimeout(p, d)
		return result{p.Now(), ok}
	}
	// sendAt sends to mb at each of the given times.
	sendAt := func(e *Engine, g *Group, mb *Mailbox, at ...Duration) {
		e.GoOn(g, "sender", func(p *Proc) {
			for _, t := range at {
				p.Sleep(t - Duration(p.Now()))
				mb.Send(1)
			}
		})
	}
	t.Run("earlier wait", func(t *testing.T) {
		forShards(t, func(t *testing.T, e *Engine, g *Group) {
			woken, expired := e.NewMailbox("woken"), e.NewMailbox("expired")
			// First waits armed at 0 for 10µs, ended by a Send at 1µs; the
			// second waits are armed at 1µs for 20µs, so the first timers
			// go off inside them at 10µs.
			sendAt(e, g, woken, us, 15*us)
			sendAt(e, g, expired, us)
			e.GoOn(g, "woken", func(p *Proc) {
				check(t, "first wait", wait(woken, p, 10*us), us, true)
				check(t, "wait ended by a Send", wait(woken, p, 20*us), 15*us, true)
			})
			e.GoOn(g, "expired", func(p *Proc) {
				check(t, "first wait", wait(expired, p, 10*us), us, true)
				check(t, "wait that expires", wait(expired, p, 20*us), 21*us, false)
			})
		})
	})
	t.Run("earlier body", func(t *testing.T) {
		forShards(t, func(t *testing.T, e *Engine, g *Group) {
			mb := e.NewMailbox("mb")
			sendAt(e, g, mb, us, 15*us, 26*us)
			e.GoOn(g, "parent", func(p *Proc) {
				var first *Proc
				// body waits d, and every body after the first lands on the
				// first's idle record.
				body := func(what string, d, at Duration, ok bool) func(q *Proc) {
					return func(q *Proc) {
						if first == nil {
							first = q
						} else if q != first {
							t.Errorf("%s ran on record %p, want the idle %p", what, q, first)
						}
						check(t, what, wait(mb, q, d), at, ok)
					}
				}
				// first's wait is armed at 0 for 10µs and ended at 1µs by a
				// Send; its timer goes off at 10µs inside second's wait,
				// armed at 2µs for 20µs and ended at 15µs by a Send.
				p.Go("first", body("first wait", 10*us, us, true))
				p.Sleep(2 * us)
				p.Go("second", body("wait ended by a Send", 20*us, 15*us, true))
				// The same for a wait that expires: third's timer goes off
				// at 35µs inside fourth's wait, armed at 27µs for 20µs.
				p.Sleep(23 * us)
				p.Go("third", body("first wait", 10*us, 26*us, true))
				p.Sleep(2 * us)
				p.Go("fourth", body("wait that expires", 20*us, 47*us, false))
			})
		})
	})
}

// TestPoisonedIdleRecordFails: with PoisonReleased set, a handle kept past
// its body's return fails on use while its record is idle, instead of
// acting as a process.
func TestPoisonedIdleRecordFails(t *testing.T) {
	defer func(was bool) { PoisonReleased = was }(PoisonReleased)
	PoisonReleased = true
	for _, tc := range []struct {
		name string
		use  func(stale *Proc)
	}{
		{"Now", func(stale *Proc) { _ = stale.Now() }},
		{"Sleep", func(stale *Proc) { stale.Sleep(time.Microsecond) }},
		{"Go", func(stale *Proc) { stale.Go("orphan", func(*Proc) {}) }},
		{"Recv", func(stale *Proc) { new(Mailbox).Recv(stale) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			defer e.Shutdown()
			var stale *Proc
			e.Go("done", func(p *Proc) { stale = p })
			e.Go("intruder", func(p *Proc) {
				p.Sleep(time.Microsecond)
				if stale.Name() != "released process" {
					t.Errorf("idle record named %q", stale.Name())
				}
				tc.use(stale)
			})
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.HasPrefix(msg, `sim: process "intruder" panicked: `) {
					t.Errorf("Run panicked with %v, want the intruder to fail", r)
				}
			}()
			_ = e.Run()
		})
	}
}
