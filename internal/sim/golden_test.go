package sim

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata")

// mixNode is one group's share of the golden workload. Everything in it —
// the RNG stream, the log, the synchronization objects — is touched only by
// events of its own group, so the workload is legal at every shard count
// and each log is a function of the canonical event order alone.
type mixNode struct {
	g    *Group
	rng  *rand.Rand
	log  bytes.Buffer
	mb   *Mailbox
	res  *Resource
	wg   *WaitGroup
	cond *Cond
	next *mixNode
}

func (m *mixNode) logf(actor, format string, args ...any) {
	fmt.Fprintf(&m.log, "%d %s ", int64(m.g.sh.now), actor)
	fmt.Fprintf(&m.log, format, args...)
	m.log.WriteByte('\n')
}

func (m *mixNode) us(n int) Duration {
	return time.Duration(m.rng.Intn(n)) * time.Microsecond
}

// mixMsg is a request relayed from node to node until its hops run out.
type mixMsg struct {
	to   *mixNode
	id   string
	hops int
}

func mixDeliver(arg any) {
	msg := arg.(*mixMsg)
	msg.to.logf("wire", "deliver %s hops=%d", msg.id, msg.hops)
	msg.to.mb.Send(msg)
}

const mixLookahead = 6 * time.Microsecond

// server drains the node's mailbox, charges the node's resource for each
// request and relays it to the next node; three idle timeouts end it.
func (m *mixNode) server(p *Proc) {
	for idle := 0; idle < 3; {
		v, ok := m.mb.RecvTimeout(p, 40*time.Microsecond)
		if !ok {
			idle++
			m.logf(p.Name(), "idle %d", idle)
			continue
		}
		msg := v.(*mixMsg)
		m.res.Use(p, m.us(5))
		m.logf(p.Name(), "served %s", msg.id)
		if msg.hops > 0 {
			p.AfterCallOn(m.next.g, mixLookahead+m.us(4), mixDeliver,
				&mixMsg{to: m.next, id: msg.id, hops: msg.hops - 1})
		}
	}
}

// client mixes every blocking and scheduling form the engine has.
func (m *mixNode) client(p *Proc, steps, depth int) {
	defer m.logf(p.Name(), "exit")
	for j := 0; j < steps; j++ {
		p.Sleep(m.us(12)) // includes zero-length sleeps
		switch op := m.rng.Intn(7); op {
		case 0:
			id := fmt.Sprintf("%s.%d", p.Name(), j)
			m.logf(p.Name(), "send %s", id)
			m.mb.Send(&mixMsg{to: m, id: id, hops: m.rng.Intn(3)})
		case 1:
			if depth > 0 {
				name := fmt.Sprintf("%s/%d", p.Name(), j)
				m.logf(p.Name(), "spawn %s", name)
				m.wg.Add(1)
				p.Go(name, func(q *Proc) {
					defer m.wg.Done()
					m.client(q, 3, depth-1)
				})
			}
		case 2:
			d := m.us(9)
			name := p.Name()
			p.After(d, func() {
				m.logf("timer", "fired for %s", name)
				m.cond.Signal()
			})
			m.logf(p.Name(), "armed %v", d)
		case 3:
			m.res.Acquire(p)
			m.logf(p.Name(), "acquired")
			p.Sleep(m.us(6))
			m.res.Release()
		case 4:
			p.After(m.us(20)+time.Microsecond, m.cond.Broadcast)
			m.cond.Wait(p)
			m.logf(p.Name(), "signalled")
		case 5:
			p.Yield()
			m.logf(p.Name(), "yielded")
		case 6:
			if depth == 2 { // only top-level clients: a child would wait for itself
				m.wg.Wait(p)
				m.logf(p.Name(), "children done")
			}
		}
	}
}

// runMix executes the golden workload at the given shard count and returns
// its transcript: the RunUntil slices as seen from outside, then every
// node's (time, actor) log, then the engine's event total.
func runMix(shards int) string {
	e := NewEngine()
	defer e.Shutdown()
	e.SetShards(shards)
	e.SetLookahead(mixLookahead)
	nodes := make([]*mixNode, 7)
	for i := range nodes {
		g := e.DefaultGroup()
		if i > 0 {
			g = e.AddGroup(fmt.Sprintf("n%d", i))
		}
		nodes[i] = &mixNode{
			g:    g,
			rng:  rand.New(rand.NewSource(int64(20030917 + i))),
			mb:   e.NewMailbox("mb"),
			res:  e.NewResource("res", 1+i%2),
			wg:   e.NewWaitGroup(),
			cond: e.NewCond(),
		}
	}
	for i, m := range nodes {
		m.next = nodes[(i+1)%len(nodes)]
	}
	spawn := func(phase int) {
		for i, m := range nodes {
			m := m
			if phase == 0 {
				e.GoOn(m.g, fmt.Sprintf("srv%d", i), m.server)
			}
			for c := 0; c < 3; c++ {
				at := m.g.sh.now.Add(time.Duration(c*(i+1)) * time.Microsecond)
				e.GoAtOn(m.g, at, fmt.Sprintf("c%d.%d.%d", i, phase, c), func(p *Proc) {
					m.client(p, 8, 2)
				})
			}
			e.ScheduleOn(m.g, m.g.sh.now.Add(30*time.Microsecond), func() {
				m.logf("sched", "phase %d tick", phase)
				m.cond.Broadcast()
			})
		}
	}
	// One process that nothing ever wakes: the deadlock report is part of
	// the transcript.
	e.GoOn(nodes[3].g, "stuck", func(p *Proc) { e.NewMailbox("never").Recv(p) })

	var out bytes.Buffer
	spawn(0)
	for k := 1; ; k++ {
		err := e.RunUntil(Time(k) * Time(25*time.Microsecond))
		fmt.Fprintf(&out, "slice %d now=%d pending=%d err=%v\n", k, int64(e.Now()), e.Pending(), err)
		if e.Pending() == 0 {
			break
		}
		if k == 2 || k == 5 {
			spawn(k)
		}
	}
	for i, m := range nodes {
		fmt.Fprintf(&out, "--- node %d\n", i)
		out.Write(m.log.Bytes())
	}
	fmt.Fprintf(&out, "events=%d\n", e.Telemetry().TotalEvents())
	return out.String()
}

// TestEventOrderGolden pins the engine's observable behaviour — which actor
// runs at which virtual instant, what every RunUntil slice leaves pending,
// the deadlock report and the executed-event total — to a transcript
// recorded before the engine moved from goroutines and channels to
// coroutine carriers. It must read the same at every shard count.
func TestEventOrderGolden(t *testing.T) {
	path := filepath.Join("testdata", "event_order.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(runMix(1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		if got := runMix(shards); got != string(want) {
			t.Errorf("shards=%d: transcript differs from %s (%d vs %d bytes)%s",
				shards, path, len(got), len(want), firstDiff(got, string(want)))
		}
	}
}

// firstDiff renders the first differing line of two transcripts.
func firstDiff(got, want string) string {
	g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("\nline %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return ""
}
