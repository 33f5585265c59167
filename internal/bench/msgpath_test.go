package bench

import (
	"fmt"
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
)

// TestMultipleIOEventBudget holds the cost of moving a byte on the host
// clock, access method by access method: the Figure 8 geometry — 64 pieces
// of 3 kB per rank, each inside one stripe — written and read back on the
// paper's servers in steady state (the same access has run once before).
// The counts are exact at any seed (the cell draws no randomness) and the
// ceilings are the counts measured with the inbound message path run to
// completion and exchange buffers handed over:
//
//   - events and process switches. Multiple I/O is the row the test is named
//     for: 18 events and 3 switches per request, the other 15 being
//     callbacks and Sleeps that were next in line. A process between
//     Node.Send and the process that wants the message — a relay — costs at
//     least one event and one switch per message, three messages a request
//     (a relay in the fabric and one in the adapter make it 26 and 12).
//   - bytes copied, which over the payload is the number of host copies a
//     payload byte goes through: a copy put back on a data path (one between
//     the daemon's staging buffer and the payload it hands over, the body
//     copy in an owning send) moves a whole row by one, a copy put back on
//     the read path alone (the snapshot of a same-shard RDMA read, the fill
//     of the staging buffer the file lends its bytes to) by half.
//   - host mallocs, less what spawning the ranks costs. A list operation
//     describes itself in recycled plans, cursors, records and sieve scratch,
//     a gather operation plans its group registration in its plan and finds
//     its buffers in the pin-down cache, and the children of an operation
//     that spans servers run on recycled carriers with their process
//     records, so every row allocates nothing but collective I/O's message
//     bodies that its extents' Allgather misses in the root's pool — (n-1)²
//     a call, one at two ranks, which the pool's host cost counts as fresh:
//     its two-phase scratch is the client's, its exchange messages ride
//     pooled envelopes into reused result slices. A descriptor rebuilt per
//     request, or a process record per child, moves a row by the number of
//     its requests.
//
// The three list-shaped methods take their transfer scheme from the
// operation's options, so they run under each; data sieving and collective
// I/O reach PVFS only through MPI-IO, which leaves the choice to the hybrid
// rule (their large contiguous requests gather).
func TestMultipleIOEventBudget(t *testing.T) {
	const (
		pieces = 64
		piece  = 3 << 10
		stride = 16 << 10
		// payload is what one rank's write and read of its pieces move.
		payload = 2 * pieces * piece
		// gathered is what they copy gathered: a write moves a byte three
		// times, a read once (it lands straight from the file's extents);
		// packed is what they copy packed: a write four times, a read three.
		gathered = 2 * payload
		packed   = 7 * payload / 2
	)
	// list is the three list-shaped methods: one PVFS list operation per
	// batch pieces, with the given sieving mode.
	list := func(batch int, mode sieve.Mode) func(tr pvfs.Transfer) accessOp {
		return func(tr pvfs.Transfer) accessOp {
			opts := pvfs.OpOptions{Transfer: tr, Sieve: mode}
			return func(p *sim.Proc, file *mpiio.File, b buffer, write bool) {
				for i := 0; i < pieces; i += batch {
					if write {
						sim.Must(file.Handle().WriteList(p, b.Segs[i:i+batch], b.Accs[i:i+batch], opts))
					} else {
						sim.Must(file.Handle().ReadList(p, b.Segs[i:i+batch], b.Accs[i:i+batch], opts))
					}
				}
			}
		}
	}
	viaMPIIO := func(m mpiio.Method) func(pvfs.Transfer) accessOp {
		return func(pvfs.Transfer) accessOp {
			return func(p *sim.Proc, file *mpiio.File, b buffer, write bool) {
				if write {
					sim.Must(file.Write(p, m, b.Segs, b.Accs))
				} else {
					sim.Must(file.Read(p, m, b.Segs, b.Accs))
				}
			}
		}
	}
	all := []pvfs.Transfer{pvfs.ForcePack, pvfs.ForceGather, pvfs.Hybrid}
	for _, row := range []struct {
		method  string
		ranks   int
		schemes []pvfs.Transfer
		op      func(pvfs.Transfer) accessOp
		// Ceilings per scheme, in schemes order: events, process switches,
		// bytes copied, host mallocs.
		budget [][4]int64
	}{
		// 128 requests of 3 kB: 18 events and 3 switches each (gather: 27 and
		// 5, a registration on either side of the transfer); 3.5 copies a
		// byte packed, 2 gathered; no malloc.
		{"multiple", 1, all, list(1, sieve.Never),
			[][4]int64{{18 * 128, 3 * 128, packed, 0}, {27 * 128, 5 * 128, gathered, 0}, {18 * 128, 3 * 128, packed, 0}}},
		// 8 requests of 48 kB, 16 pieces each: two operations over four
		// servers, so six child processes.
		{"listio", 1, all, list(pieces, sieve.Never),
			[][4]int64{{407, 331, packed, 0}, {476, 365, gathered, 0}, {476, 365, gathered, 0}}},
		// The same through the servers' sieve: fewer disk calls, and a
		// sieved window copies only the bytes its request names.
		{"listio+ads", 1, all, list(pieces, sieve.Auto),
			[][4]int64{{287, 211, packed, 0}, {356, 245, gathered, 0}, {356, 245, gathered, 0}}},
		// Writes as Multiple I/O, reads the 1 MB extent whole and extracts.
		{"datasieving", 1, []pvfs.Transfer{pvfs.Hybrid}, viaMPIIO(mpiio.DataSieving),
			[][4]int64{{1331, 249, 2018304, 0}}},
		// Two ranks: pack, hand over, assemble, one contiguous request each;
		// a write and a read, so two Allgather pool misses.
		{"collective", 2, []pvfs.Transfer{pvfs.Hybrid}, viaMPIIO(mpiio.Collective),
			[][4]int64{{838, 418, 6713440, 2}}},
	} {
		for i, tr := range row.schemes {
			t.Run(fmt.Sprintf("%s/%s", row.method, tr), func(t *testing.T) {
				reqs, payload, cost, mallocs := accessCost(t, row.ranks, pieces, piece, stride, row.op(tr))
				t.Logf("%d requests, %d payload bytes: %d events (%.2f per request), %d process switches (%.2f), %d inline wakes, %d bytes copied (%.3f per payload byte), %d cleared, %d mallocs (%.2f per request)",
					reqs, payload, cost.Events, float64(cost.Events)/float64(reqs), cost.Resumes, float64(cost.Resumes)/float64(reqs),
					cost.InlineWakes, cost.BytesCopied, float64(cost.BytesCopied)/float64(payload), cost.BytesCleared,
					mallocs, float64(mallocs)/float64(reqs))
				for j, c := range []struct {
					what string
					got  int64
				}{{"events", cost.Events}, {"process switches", cost.Resumes}, {"bytes copied", cost.BytesCopied}, {"host mallocs", mallocs}} {
					if raceEnabled && c.what == "host mallocs" {
						continue // the detector's runtime allocates too: ±2 a pass
					}
					if max := row.budget[i][j]; c.got > max {
						t.Errorf("%d %s for %d requests and %d payload bytes, ceiling %d", c.got, c.what, reqs, payload, max)
					}
				}
			})
		}
	}
}

// accessOp moves a rank's buffer to or from the file by one access method.
type accessOp func(p *sim.Proc, file *mpiio.File, b buffer, write bool)

// accessCost runs op as a write then a read on every rank of a 4-server
// cluster, twice, and returns what the second run cost the host together
// with the requests and payload bytes it moved, and the heap objects it
// allocated beyond those of a pass whose ranks do nothing. Rank r's piece i
// is piece bytes at file offset i*stride + r*piece, from packed memory.
func accessCost(t *testing.T, ranks int, pieces, piece, stride int64, op accessOp) (reqs, payload int64, cost sim.HostCost, mallocs int64) {
	t.Helper()
	f := newFixture(pvfs.DefaultConfig(), 4, ranks)
	defer f.close()
	bufs := make([]buffer, ranks)
	files := make([]*mpiio.File, ranks)
	for r, cl := range f.c.Clients {
		b := buffer{Base: cl.Space().Malloc(pieces * piece)}
		for i := int64(0); i < pieces; i++ {
			b.Segs = append(b.Segs, ib.SGE{Addr: b.Base + mem.Addr(i*piece), Len: piece})
			b.Accs = append(b.Accs, pvfs.OffLen{Off: i*stride + int64(r)*piece, Len: piece})
		}
		fillPattern(cl.Space(), b.Segs, byte(r))
		bufs[r] = b
	}
	idle := false
	pass := func() {
		f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
			id := rank.ID()
			if files[id] == nil {
				files[id] = mpiio.Open(p, cl, rank, "tile")
			}
			if idle {
				return
			}
			op(p, files[id], bufs[id], true)
			op(p, files[id], bufs[id], false)
		})
	}
	pass() // untimed: pools, free lists, file blocks and pin-down caches warm up
	cost0, acct0 := f.HostCost(), f.c.Acct()
	pass()
	acct := f.c.Acct()
	// Less the one event, a switch, that starts each rank's process.
	cost = f.HostCost().Sub(cost0)
	cost.Events -= int64(ranks)
	cost.Resumes -= int64(ranks)
	// Averaged over further passes, as AllocsPerRun does, so that a stray
	// allocation by the runtime does not count.
	mallocs = int64(testing.AllocsPerRun(4, pass))
	idle = true
	mallocs -= int64(testing.AllocsPerRun(4, pass))
	return acct.ReadReqs + acct.WriteReqs - acct0.ReadReqs - acct0.WriteReqs, acct.BytesClientServer - acct0.BytesClientServer, cost, mallocs
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
	runAndRetire(eng)
}
