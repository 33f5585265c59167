package simnet

import (
	"testing"
	"time"

	"pvfsib/internal/metrics"
	"pvfsib/internal/sim"
	"pvfsib/internal/sim/simtest"
	"pvfsib/internal/trace"
)

func testNet(t *testing.T) (*sim.Engine, *Network, *Node, *Node) {
	t.Helper()
	eng := sim.NewEngine()
	net := New(eng, DefaultParams())
	a := net.AddNode("a")
	b := net.AddNode("b")
	return eng, net, a, b
}

// run executes the engine to completion: the fabric itself has no process,
// so anything still parked is a test process that never got its message.
func run(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallMessageLatency(t *testing.T) {
	eng, _, a, b := testNet(t)
	var arrived sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		m := b.Inbox.Recv(p).(*Message)
		arrived = m.ArriveAt
		if m.Payload.(string) != "ping" {
			t.Errorf("payload = %v", m.Payload)
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		a.Send(p, b.ID, 4, "ping")
	})
	run(t, eng)
	// 4 bytes: serialization is negligible; arrival ≈ latency.
	lo, hi := sim.Time(6*time.Microsecond), sim.Time(6*time.Microsecond+100)
	if arrived < lo || arrived > hi {
		t.Errorf("4-byte message arrived at %v, want ≈6µs", arrived)
	}
}

func TestLargeMessageBandwidth(t *testing.T) {
	eng, net, a, b := testNet(t)
	const size = 64 * MB
	var arrived sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		m := b.Inbox.Recv(p).(*Message)
		arrived = m.ArriveAt
	})
	eng.Go("send", func(p *sim.Proc) {
		a.Send(p, b.ID, size, nil)
	})
	run(t, eng)
	gotBW := float64(size) / arrived.Seconds() / MB
	if gotBW < 800 || gotBW > 830 {
		t.Errorf("bandwidth = %.1f MB/s, want ≈827", gotBW)
	}
	if net.BytesSent[a.ID] != size {
		t.Errorf("BytesSent = %d, want %d", net.BytesSent[a.ID], size)
	}
}

func TestSenderBlocksForSerialization(t *testing.T) {
	eng, net, a, b := testNet(t)
	const size = 8 * MB
	var sendDone sim.Time
	eng.Go("send", func(p *sim.Proc) {
		a.Send(p, b.ID, size, nil)
		sendDone = p.Now()
	})
	run(t, eng)
	ser := net.Params().SerializationTime(size)
	if sendDone != sim.Time(ser) {
		t.Errorf("send returned at %v, want %v", sendDone, ser)
	}
}

func TestMessagesFromOneSenderStayOrdered(t *testing.T) {
	eng, _, a, b := testNet(t)
	var got []int
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			m := b.Inbox.Recv(p).(*Message)
			got = append(got, m.Payload.(int))
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			a.Send(p, b.ID, 1<<uint(20-i), i) // decreasing sizes
		}
	})
	run(t, eng)
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v, want [0 1 2 3 4]", got)
		}
	}
}

func TestIncastSharesReceiverBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultParams())
	dst := net.AddNode("dst")
	const nsenders = 4
	const size = 16 * MB
	for i := 0; i < nsenders; i++ {
		src := net.AddNode("src")
		eng.Go("send", func(p *sim.Proc) {
			src.Send(p, dst.ID, size, nil)
		})
	}
	var last sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < nsenders; i++ {
			m := dst.Inbox.Recv(p).(*Message)
			last = m.ArriveAt
		}
	})
	run(t, eng)
	// All four must serialize through dst's single receive engine.
	minTime := net.Params().SerializationTime(nsenders * size)
	if last < sim.Time(minTime) {
		t.Errorf("incast finished at %v, faster than receive line rate %v", last, minTime)
	}
}

// TestBackToBackArrivalsQueueOnTheReceiveEngine: two senders start a
// microsecond apart, so the second head reaches dst while the first message
// is still being received and waits for it. The engine is two event callbacks: the second
// reception starts in the event that ends the first, the staged gauge and
// the net.rx spans say so, and once the traffic is through nothing is
// parked — the fabric has no process of its own.
func TestBackToBackArrivalsQueueOnTheReceiveEngine(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultParams())
	dst := net.AddNode("dst")
	mx := metrics.NewRegistry(metrics.Config{})
	mx.RegisterNodes("dst", "src0", "src1")
	tr := trace.NewTracer("dst", "src0", "src1")
	net.SetTracer(tr)
	sizes := []int{3 << 10, 48 << 10}
	for i, size := range sizes {
		src := net.AddNode([]string{"src0", "src1"}[i])
		eng.Go("send", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * time.Microsecond)
			if err := src.Send(p, dst.ID, size, nil); err != nil {
				t.Error(err)
			}
		})
	}
	net.SetMetrics(mx)
	var got []*Message
	eng.Go("recv", func(p *sim.Proc) {
		for range sizes {
			got = append(got, dst.Inbox.Recv(p).(*Message))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("after the last message: %v", err)
	}
	par := net.Params()
	first := sim.Time(par.Latency + par.SerializationTime(sizes[0]))
	if got[0].ArriveAt != first {
		t.Errorf("first arrival at %v, want %v", got[0].ArriveAt, first)
	}
	if want := first.Add(par.SerializationTime(sizes[1])); got[1].ArriveAt != want {
		t.Errorf("second arrival at %v, want %v: the first arrival plus its own serialization time", got[1].ArriveAt, want)
	}
	if cur, hi := dst.mx.staged.Current(), dst.mx.staged.High(); cur != 0 || hi != 1 {
		t.Errorf("net.inflight = %d (high %d), want 0 (high 1: the second message, while the first was received)", cur, hi)
	}
	if dst.rxTail != nil || eng.Pending() != 0 {
		t.Errorf("receive engine not idle: tail %v, %d events pending", dst.rxTail, eng.Pending())
	}
	var rx []trace.SpanRec
	for _, sp := range tr.Spans() {
		if sp.Kind == "net.rx" {
			rx = append(rx, sp)
		}
	}
	if len(rx) != 2 || !rx[0].Ended || !rx[1].Ended {
		t.Fatalf("net.rx spans: %+v, want two ended spans", rx)
	}
	if rx[0].End != first || rx[1].Start != first || rx[1].End != got[1].ArriveAt {
		t.Errorf("net.rx spans [%v, %v] and [%v, %v]: the second must start where the first ends, at %v",
			rx[0].Start, rx[0].End, rx[1].Start, rx[1].End, first)
	}
}

func TestDisjointPairsRunInParallel(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultParams())
	const size = 32 * MB
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		src := net.AddNode("src")
		dst := net.AddNode("dst")
		eng.Go("send", func(p *sim.Proc) { src.Send(p, dst.ID, size, nil) })
		eng.Go("recv", func(p *sim.Proc) {
			m := dst.Inbox.Recv(p).(*Message)
			finish = append(finish, m.ArriveAt)
		})
	}
	run(t, eng)
	oneFlow := sim.Time(net.Params().SerializationTime(size)) + sim.Time(net.Params().Latency)
	for _, f := range finish {
		if f != oneFlow {
			t.Errorf("flow finished at %v, want %v (no cross-pair interference)", f, oneFlow)
		}
	}
}

// TestCrossedSendsAtOneInstant: two nodes that send to each other at the
// same instant, two senders a node, are two independent directions. A
// sender holds its own transmit engine only, so each node's two messages
// queue there and both directions finish together. A send that also took
// the peer's engine while holding its own would deadlock here: the second
// sender on each node gets its own engine when the first finishes, then
// waits for the peer's, which the peer's second sender holds — the run
// ends in a sim.DeadlockError.
func TestCrossedSendsAtOneInstant(t *testing.T) {
	eng, net, a, b := testNet(t)
	const size = 1 * MB
	var arrived [2][2]sim.Time
	for i, pair := range [2][2]*Node{{a, b}, {b, a}} {
		from, to := pair[0], pair[1]
		for range 2 {
			eng.Go("send", func(p *sim.Proc) {
				if err := from.Send(p, to.ID, size, nil); err != nil {
					t.Error(err)
				}
			})
		}
		eng.Go("recv", func(p *sim.Proc) {
			for j := range arrived[i] {
				arrived[i][j] = to.Inbox.Recv(p).(*Message).ArriveAt
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("crossed sends: %v", err)
	}
	ser := sim.Time(net.Params().SerializationTime(size))
	first := ser + sim.Time(net.Params().Latency)
	want := [2]sim.Time{first, first + ser}
	if arrived != [2][2]sim.Time{want, want} {
		t.Errorf("arrivals %v, want %v in both directions", arrived, want)
	}
}

// TestSimnetSendAllocFree: pooled messages go from one node's Send through
// the receiver's two receive callbacks (deliverStage, rxDone) and back to
// the free list, and a steady-state send allocates nothing.
func TestSimnetSendAllocFree(t *testing.T) {
	eng, net, a, b := testNet(t)
	var token any = 1
	eng.Go("rx", func(p *sim.Proc) {
		for {
			net.Recycle(b.Inbox.Recv(p).(*Message))
		}
	})
	simtest.AllocFree(t, eng, "simnet send", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			if err := a.Send(p, b.ID, 4096, token); err != nil {
				sim.Failf("simnet: send: %v", err)
			}
		}
	})
}

func TestSendToUnknownNodePanics(t *testing.T) {
	eng, _, a, _ := testNet(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	eng.Go("bad", func(p *sim.Proc) {
		a.Send(p, NodeID(99), 1, nil)
	})
	_ = eng.Run()
}

func TestSerializationTimeZeroAndNegative(t *testing.T) {
	p := DefaultParams()
	if p.SerializationTime(0) != 0 || p.SerializationTime(-5) != 0 {
		t.Error("nonpositive sizes must serialize in zero time")
	}
}
