package bench

import (
	"testing"

	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// TestMultipleIOEventBudget holds the fixed cost of a request on the host
// clock: Multiple I/O as Figure 8 runs it — one rank, one contiguous
// pack-sized request per 3 kB piece, each inside one stripe — written and
// read back on the paper's cluster. Both counts are exact at any seed (the
// cell draws no randomness), and the ceilings are those counts with the
// inbound message path run to completion. A process between Node.Send and
// the process that wants the message — a relay — costs at least one event
// and one switch per message, three messages a request (a relay in the
// fabric and one in the adapter make it 26 events and 12 switches), and
// fails here.
func TestMultipleIOEventBudget(t *testing.T) {
	const (
		pieces = 64
		piece  = 3 << 10
		stride = 16 << 10

		eventsPerRequest  = 18
		resumesPerRequest = 3 // the other 15 are callbacks and Sleeps that were next in line
	)
	f := newFixture(pvfs.DefaultConfig(), 4, 1)
	defer f.close()
	cl := f.c.Clients[0]
	buf := cl.Space().Malloc(pieces * piece)
	var fh *pvfs.FileHandle
	// Untimed: open, and one request to every server so that pools and
	// free lists are warm.
	f.runRanks(func(p *sim.Proc, _ *mpi.Rank, _ *pvfs.Client) {
		fh = cl.Open(p, "tile")
		for i := int64(0); i < 4; i++ {
			sim.Must(fh.Write(p, buf, piece, i*f.c.Cfg.StripeSize, pvfs.OpOptions{}))
		}
	})
	tm0, reqs0 := f.c.Eng.Telemetry(), f.c.Snapshot()
	f.runRanks(func(p *sim.Proc, _ *mpi.Rank, _ *pvfs.Client) {
		for i := int64(0); i < pieces; i++ {
			sim.Must(fh.Write(p, buf+mem.Addr(i*piece), piece, i*stride, pvfs.OpOptions{}))
		}
		for i := int64(0); i < pieces; i++ {
			sim.Must(fh.Read(p, buf+mem.Addr(i*piece), piece, i*stride, pvfs.OpOptions{}))
		}
	})
	tm1, reqs1 := f.c.Eng.Telemetry(), f.c.Snapshot()
	reqs := (reqs1.WriteReqs + reqs1.ReadReqs) - (reqs0.WriteReqs + reqs0.ReadReqs)
	if reqs != 2*pieces {
		t.Fatalf("%d requests for %d pieces written and read: a piece is no longer one request", reqs, pieces)
	}
	// Less the one event, a switch, that starts the measured process.
	events := tm1.TotalEvents() - tm0.TotalEvents() - 1
	resumes := tm1.Resumes - tm0.Resumes - 1
	t.Logf("%d requests: %d events (%.2f per request), %d process switches (%.2f), %d inline wakes",
		reqs, events, float64(events)/float64(reqs), resumes, float64(resumes)/float64(reqs), tm1.InlineWakes-tm0.InlineWakes)
	if events > eventsPerRequest*reqs {
		t.Errorf("%d events for %d requests, ceiling %d per request", events, reqs, eventsPerRequest)
	}
	if resumes > resumesPerRequest*reqs {
		t.Errorf("%d process switches for %d requests, ceiling %d per request", resumes, reqs, resumesPerRequest)
	}
}

// BenchmarkMessagePath is one channel-semantics message end to end: QP.Send
// on one node, the fabric's transmit and receive engines, the peer
// adapter's receive handler, QP.Recv in the process that waits for it.
func BenchmarkMessagePath(b *testing.B) {
	eng, qa, qb, _, _, _ := rdmaPair(b)
	var token any = 1
	b.ReportAllocs()
	eng.Go("rx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			qb.Recv(p)
		}
	})
	eng.Go("tx", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Must(qa.Send(p, 64, token))
		}
	})
	runTolerant(eng)
}
