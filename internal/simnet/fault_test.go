package simnet

import (
	"errors"
	"testing"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/sim"
)

// TestPartitionDropsAndHeals cuts the a<->b link for a window and checks
// that sends inside it fail with ErrDropped (both directions), sends before
// and after succeed, and the dropped message still cost the sender its
// serialization time.
func TestPartitionDropsAndHeals(t *testing.T) {
	eng, net, a, b := testNet(t)
	inj := new(fault.Injector)
	inj.Arm(fault.Plan{
		Cuts: []fault.Cut{{A: 0, B: 1, At: 100 * time.Microsecond, Dur: 200 * time.Microsecond}},
	})
	net.SetFaults(inj)
	const size = 4096
	ser := sim.Time(net.Params().SerializationTime(size))
	eng.Go("sender", func(p *sim.Proc) {
		if err := a.Send(p, b.ID, size, "before"); err != nil {
			t.Errorf("send before cut: %v", err)
		}
		p.Sleep(sim.Duration(150*time.Microsecond) - sim.Duration(p.Now()))
		start := p.Now()
		if err := a.Send(p, b.ID, size, "during"); !errors.Is(err, ErrDropped) {
			t.Errorf("send during cut: got %v, want ErrDropped", err)
		}
		if got := p.Now() - start; got != ser {
			t.Errorf("dropped send charged %v, want serialization %v", got, ser)
		}
		if err := b.Send(p, a.ID, size, "reverse"); !errors.Is(err, ErrDropped) {
			t.Errorf("cut must be bidirectional: got %v", err)
		}
		p.Sleep(sim.Duration(400*time.Microsecond) - sim.Duration(p.Now()))
		if err := a.Send(p, b.ID, size, "after"); err != nil {
			t.Errorf("send after heal: %v", err)
		}
	})
	var got []string
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, b.Inbox.Recv(p).(*Message).Payload.(string))
		}
	})
	run(t, eng)
	if len(got) != 2 || got[0] != "before" || got[1] != "after" {
		t.Errorf("delivered %v, want [before after]", got)
	}
	if inj.Counters.Drops != 2 {
		t.Errorf("drops = %d, want 2", inj.Counters.Drops)
	}
}

// TestSpikeStallsWithoutReordering delays one sender with a latency spike
// while another message from the same sender follows immediately: per-link
// FIFO order must hold even though the spike stalls the first message
// before the transmit engine.
func TestSpikeStallsWithoutReordering(t *testing.T) {
	eng, net, a, b := testNet(t)
	inj := new(fault.Injector)
	inj.Arm(fault.Plan{
		Spikes: []fault.Spike{{From: 0, To: 1, At: 0, Dur: 50 * time.Microsecond, Extra: 30 * time.Microsecond}},
	})
	net.SetFaults(inj)
	eng.Go("sender", func(p *sim.Proc) {
		// First send eats the spike stall; second leaves after the window.
		sim.Must(a.Send(p, b.ID, 64, "first"))
		p.Sleep(sim.Duration(60*time.Microsecond) - sim.Duration(p.Now()))
		sim.Must(a.Send(p, b.ID, 64, "second"))
	})
	var order []string
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, b.Inbox.Recv(p).(*Message).Payload.(string))
		}
	})
	run(t, eng)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("delivery order %v, want [first second]", order)
	}
	if inj.Counters.Spiked != 1 {
		t.Errorf("spiked = %d, want 1", inj.Counters.Spiked)
	}
}

// TestConcurrentSendersSerializeUnderFaults drives many concurrent senders
// at one receiver through a fault policy and checks the per-link invariant
// the fabric promises: each sender's own messages arrive in send order, and
// the receive engine never overlaps two messages (arrivals are spaced by at
// least the receive serialization time).
func TestConcurrentSendersSerializeUnderFaults(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultParams())
	dst := net.AddNode("dst")
	const nSenders, perSender, size = 4, 8, 8192
	inj := new(fault.Injector)
	inj.Arm(fault.Plan{
		Seed: 3,
		Spikes: []fault.Spike{
			{From: fault.Wildcard, To: 0, At: 0, Dur: 20 * time.Microsecond, Extra: 5 * time.Microsecond},
		},
	})
	net.SetFaults(inj)
	srcs := make([]*Node, nSenders)
	for i := range srcs {
		srcs[i] = net.AddNode("src")
	}
	for i, src := range srcs {
		i, src := i, src
		eng.Go("sender", func(p *sim.Proc) {
			for k := 0; k < perSender; k++ {
				sim.Must(src.Send(p, dst.ID, size, [2]int{i, k}))
			}
		})
	}
	lastSeq := make([]int, nSenders)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var lastArrival sim.Time
	ser := sim.Time(net.Params().SerializationTime(size))
	eng.Go("recv", func(p *sim.Proc) {
		for n := 0; n < nSenders*perSender; n++ {
			m := dst.Inbox.Recv(p).(*Message)
			id := m.Payload.([2]int)
			if id[1] != lastSeq[id[0]]+1 {
				t.Errorf("sender %d: got seq %d after %d", id[0], id[1], lastSeq[id[0]])
			}
			lastSeq[id[0]] = id[1]
			if n > 0 && m.ArriveAt-lastArrival < ser {
				t.Errorf("arrivals %v apart, want >= %v (rx engine overlap)", m.ArriveAt-lastArrival, ser)
			}
			lastArrival = m.ArriveAt
		}
	})
	run(t, eng)
	for i, last := range lastSeq {
		if last != perSender-1 {
			t.Errorf("sender %d: delivered through seq %d, want %d", i, last, perSender-1)
		}
	}
}
