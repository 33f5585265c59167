package ib

import (
	"testing"
	"time"

	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// readLen makes a read response occupy the target's transmit engine for
// about 80 µs, long enough for other traffic to arrive while it is served.
const readLen = 64 << 10

// star is one target adapter with a registered region and n peers, each
// with a registered landing buffer and a queue pair to the target.
type star struct {
	eng    *sim.Engine
	net    *simnet.Network
	target *HCA
	src    mem.Addr // readLen registered bytes on the target
	key    Key
	peers  []*HCA
	bufs   []mem.Addr // readLen registered bytes on each peer
	out    []*QP      // peer i -> target
	in     []*QP      // target's end of out[i]
}

func newStar(t *testing.T, n int) *star {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	s := &star{eng: eng, net: net}
	s.target = NewHCA(net.AddNode("target"), mem.NewAddrSpace("target"), DefaultParams())
	s.src = s.target.Space().Malloc(readLen)
	mr, err := s.target.RegisterStatic(mem.Extent{Addr: s.src, Len: readLen})
	if err != nil {
		t.Fatal(err)
	}
	s.key = mr.Key
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		h := NewHCA(net.AddNode(name), mem.NewAddrSpace(name), DefaultParams())
		buf := h.Space().Malloc(readLen)
		if _, err := h.RegisterStatic(mem.Extent{Addr: buf, Len: readLen}); err != nil {
			t.Fatal(err)
		}
		out, in := Connect(h, s.target)
		s.peers, s.bufs = append(s.peers, h), append(s.bufs, buf)
		s.out, s.in = append(s.out, out), append(s.in, in)
	}
	return s
}

// read has peer i read n bytes of the target's region, starting at virtual
// time at, and stores the completion instant in done.
func (s *star) read(t *testing.T, i int, at sim.Duration, n int64, done *sim.Time) {
	s.eng.Go("read", func(p *sim.Proc) {
		p.Sleep(at)
		if err := s.out[i].RDMARead(p, []SGE{{Addr: s.bufs[i], Len: n}}, s.src, s.key); err != nil {
			t.Errorf("peer %d: %v", i, err)
		}
		*done = p.Now()
	})
}

// TestReadBeingServedHoldsLaterArrivals pins the adapter's head-of-line
// order: peer a's RDMA read occupies the target's responder for the
// turnaround and the whole response transmission, and peer b's send, which
// the target receives a few microseconds into that, reaches its queue pair
// only when the response has left — not when it arrived.
func TestReadBeingServedHoldsLaterArrivals(t *testing.T) {
	s := newStar(t, 2)
	latency := s.net.Params().Latency
	var readDone, sendDone, recvAt sim.Time
	s.read(t, 0, 0, readLen, &readDone)
	s.eng.Go("send", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond)
		if err := s.out[1].Send(p, 64, "behind the read"); err != nil {
			t.Error(err)
		}
		sendDone = p.Now()
	})
	s.eng.Go("recv", func(p *sim.Proc) {
		s.in[1].Recv(p)
		recvAt = p.Now()
	})
	run(t, s.eng)
	// The response's last byte reaches a one latency after it left the
	// target, and a's read completes at that instant.
	txDone := readDone.Add(-latency)
	if arrived := sendDone.Add(latency); arrived >= txDone {
		t.Fatalf("b's send arrived at about %v, not before the response left at %v: the test no longer overlaps them", arrived, txDone)
	}
	if recvAt != txDone {
		t.Errorf("b's send reached its QP at %v, want %v: no earlier than the read response leaving the target (it must not overtake the read), and no later (the responder delivers what it held up the instant it is done)", recvAt, txDone)
	}
}

// TestResponderServesQueuedReadInSamePass: while a's read is served the
// target receives b's send and then b's own read request. The responder
// works through both when it is done with a's — the send is delivered and
// the second read's turnaround begins at that same instant, without the
// responder going idle in between.
func TestResponderServesQueuedReadInSamePass(t *testing.T) {
	s := newStar(t, 2)
	par := s.net.Params()
	const secondLen = 8 << 10
	var firstDone, secondDone, recvAt sim.Time
	s.read(t, 0, 0, readLen, &firstDone)
	s.eng.Go("send", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond)
		if err := s.out[1].Send(p, 64, nil); err != nil {
			t.Error(err)
		}
	})
	s.read(t, 1, 20*time.Microsecond, secondLen, &secondDone)
	s.eng.Go("recv", func(p *sim.Proc) {
		s.in[1].Recv(p)
		recvAt = p.Now()
	})
	run(t, s.eng)
	txDone := firstDone.Add(-par.Latency)
	if recvAt != txDone {
		t.Errorf("queued send delivered at %v, want %v", recvAt, txDone)
	}
	want := txDone.Add(s.target.params.ReadTurnaround + par.Latency + par.SerializationTime(secondLen+wireHeader))
	if secondDone != want {
		t.Errorf("queued read completed at %v, want %v: served from the backlog the instant the first was done", secondDone, want)
	}
	if s.target.serving != nil || len(s.target.backlog) != 0 {
		t.Errorf("responder not idle: serving %v, backlog %d", s.target.serving, len(s.target.backlog))
	}
}

// poolCensus counts what one shard's adapter pools have out, and how often
// the scratch pool had to allocate.
type poolCensus struct {
	wires, scratch, scratchMisses int64
}

func census(wp *wirePool) poolCensus {
	return poolCensus{wires: wp.wires.Out(), scratch: wp.scratch.Out(), scratchMisses: wp.scratch.Gets - wp.scratch.Hits}
}

// TestDownAdapterDiscardsItsBacklog: the target goes down while a send, an
// RDMA write and a read request wait behind a read being served. The
// responder throws all three away when it gets to them — nothing reaches a
// queue pair or host memory — and every pooled object comes back: a second,
// identical round leaves no further wire record or scratch buffer out and
// allocates no scratch buffer and no fabric message the first had not
// already made.
func TestDownAdapterDiscardsItsBacklog(t *testing.T) {
	s := newStar(t, 3)
	msgs := map[*simnet.Message]bool{} // every fabric message any adapter received
	for _, h := range append([]*HCA{s.target}, s.peers...) {
		h.node.SetReceiver(func(m *simnet.Message) {
			msgs[m] = true
			h.receive(m)
		})
	}
	landing := s.target.Space().Malloc(mem.PageSize)
	landMR, err := s.target.RegisterStatic(mem.Extent{Addr: landing, Len: mem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	round := func() {
		var done sim.Time
		start := s.eng.Now()
		s.read(t, 0, 0, readLen, &done)
		s.eng.Go("send+write", func(p *sim.Proc) {
			p.Sleep(5 * time.Microsecond)
			if err := s.out[1].Send(p, 64, nil); err != nil {
				t.Error(err)
			}
			if err := s.out[1].RDMAWrite(p, []SGE{{Addr: s.bufs[1], Len: 512}}, landing, landMR.Key); err != nil {
				t.Error(err)
			}
		})
		s.eng.Go("lost read", func(p *sim.Proc) {
			// Posted without waiting for the response that never comes.
			p.Sleep(10 * time.Microsecond)
			req := s.peers[2].takeWire(wireReadReq)
			req.id, req.initiator = 1<<40, s.peers[2].node.ID
			req.raddr, req.rkey, req.size = s.src, s.key, 4096
			sim.Must(s.peers[2].node.Send(p, s.target.node.ID, wireHeader, req))
		})
		s.eng.Go("crash", func(p *sim.Proc) {
			p.Sleep(40 * time.Microsecond)
			held = len(s.target.backlog)
			s.target.SetDown(true)
		})
		run(t, s.eng)
		if done == 0 || done <= start {
			t.Fatal("the read being served when the adapter went down did not complete")
		}
		s.target.SetDown(false)
	}
	sim.Must(s.peers[1].Space().Write(s.bufs[1], []byte{0xAB}))
	round()
	if held != 3 {
		t.Fatalf("%d messages were in the backlog when the adapter went down, want 3", held)
	}
	if n := s.in[1].inbox.Len(); n != 0 {
		t.Errorf("%d sends reached the QP of a down adapter", n)
	}
	if b, err := s.target.Space().Read(landing, 1); err != nil || b[0] != 0 {
		t.Errorf("a down adapter applied an RDMA write: %v %v", b, err)
	}
	if s.target.serving != nil || len(s.target.backlog) != 0 {
		t.Errorf("responder not idle: serving %v, backlog %d", s.target.serving, len(s.target.backlog))
	}
	for _, m := range s.target.backlog[:cap(s.target.backlog)] {
		if m != nil {
			t.Error("drained backlog still references a message")
		}
	}
	before, seen := census(s.target.wp), len(msgs)
	round()
	if after := census(s.target.wp); after != before {
		t.Errorf("adapter pools after a second round %+v, after the first %+v: a discard leaked", after, before)
	}
	if len(msgs) != seen {
		t.Errorf("second round used %d fabric messages the first had not pooled", len(msgs)-seen)
	}
}
