package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// holdSmall is a fabric fault policy that holds the messages of at most
// maxSize bytes one node sends another from a given time on for extra, and
// stamps when it held the first. At 64 bytes it holds RDMA read requests,
// which carry only the wire header; at 96 also completion notices, a
// request header with no regions; a list request is larger.
type holdSmall struct {
	from, to int
	maxSize  int
	since    sim.Time
	extra    sim.Duration
	heldAt   sim.Time
}

func (h *holdSmall) SendVerdict(now sim.Time, from, to int, size int) (bool, sim.Duration) {
	if from != h.from || to != h.to || now < h.since || size > h.maxSize {
		return false, 0
	}
	if h.heldAt == 0 {
		h.heldAt = now
	}
	return false, h.extra
}

// TestLentReadOutlivesWrite: a gathered read's bytes stay in the iod's
// file until the client's RDMA read copies them, so the file must settle
// them into the staging buffer before it changes them. The reader's RDMA
// read is held on the fabric, after the iod lent the bytes and before it
// serves them, while another client writes the same range; the reader must
// get the bytes from before the write. At one and four shards, the reader
// on the iod's shard, where the response names the iod's memory and the
// bytes are copied when it arrives.
func TestLentReadOutlivesWrite(t *testing.T) { lentReadHazard(t, false) }

// TestLentReadOutlivesRemove is TestLentReadOutlivesWrite with the file
// removed instead, and a new file that takes its extents written over the
// same range: the file must settle its loans before its extents go.
func TestLentReadOutlivesRemove(t *testing.T) { lentReadHazard(t, true) }

func lentReadHazard(t *testing.T, remove bool) {
	const (
		pieces = 16
		piece  = 2 << 10
		stride = 4 << 10
		span   = pieces * stride
		// after is when the writer starts, past the read's file phase; the
		// held RDMA read leaves hold after it was sent.
		after = 200 * time.Microsecond
		hold  = 2 * time.Millisecond
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := pvfs.DefaultConfig()
			cfg.Shards = shards
			c := pvfs.NewCluster(sim.NewEngine(), cfg, 1, 4)
			srv := c.Servers[0].HCA().Node()
			var reader, writer *pvfs.Client
			for _, cl := range c.Clients {
				if reader == nil && cl.Node().Group().ShardIndex() == srv.Group().ShardIndex() {
					reader = cl
				} else if writer == nil {
					writer = cl
				}
			}
			if reader == nil {
				t.Fatal("no client on the iod's shard")
			}
			// The reader writes the file, then reads it at readStart; the
			// writer starts after more.
			const readStart = sim.Time(2 * time.Millisecond)
			// The RDMA read request is held rather than the response: the
			// sender of the response is the iod's read responder, and holding
			// it would hold every RDMA the iod answers.
			policy := &holdSmall{from: int(reader.Node().ID), to: int(srv.ID), maxSize: 64, since: readStart, extra: hold}
			c.Net.SetFaults(policy)
			gather := pvfs.OpOptions{Transfer: pvfs.ForceGather}

			old := bytes.Repeat([]byte{0x0D}, span)
			for i := range old {
				old[i] += byte(i * 7)
			}
			want := make([]byte, 0, pieces*piece)
			dst := reader.Space().Malloc(pieces * piece)
			segs := make([]ib.SGE, pieces)
			accs := make([]pvfs.OffLen, pieces)
			for i := range segs {
				segs[i] = ib.SGE{Addr: dst + mem.Addr(i*piece), Len: piece}
				accs[i] = pvfs.OffLen{Off: int64(i*stride + 512), Len: piece}
				want = append(want, old[accs[i].Off:accs[i].Off+piece]...)
			}
			var writeStart, writeEnd sim.Time
			c.Eng.GoOn(reader.Node().Group(), "reader", func(p *sim.Proc) {
				fh := reader.Open(p, "hazard")
				src := reader.Space().Malloc(span)
				sim.Must(reader.Space().Write(src, old))
				sim.Must(fh.Write(p, src, span, 0, gather))
				if p.Now() > readStart {
					t.Errorf("the file was written at %v, after the read was due", p.Now())
				}
				p.Sleep(readStart.Sub(p.Now()))
				sim.Must(fh.ReadList(p, segs, accs, gather))
			})
			c.Eng.GoOn(writer.Node().Group(), "writer", func(q *sim.Proc) {
				q.Sleep(readStart.Sub(q.Now()) + after)
				writeStart = q.Now()
				name := "hazard"
				if remove {
					writer.Remove(q, name)
					name = "fresh"
				}
				fresh := writer.Space().Malloc(span)
				sim.Must(writer.Space().Write(fresh, bytes.Repeat([]byte{0xF1}, span)))
				sim.Must(writer.Open(q, name).Write(q, fresh, span, 0, gather))
				writeEnd = q.Now()
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if policy.heldAt == 0 || policy.heldAt > writeStart || writeEnd > policy.heldAt.Add(hold) {
				t.Fatalf("the write did not run while the RDMA read was held: read at %v, RDMA read held at %v for %v, write %v to %v",
					readStart, policy.heldAt, hold, writeStart, writeEnd)
			}
			got, err := reader.Space().Read(dst, pieces*piece)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("the read got byte %d as %#x, from before the write %#x", i, got[i], want[i])
			}
		})
	}
}

// TestLateWriteMissesReusedRecord: an iod handler looks its file up when a
// gather write arrives and writes once the client's completion notice does.
// The notice is held on the fabric while another client removes the file
// and writes a new one, whose stripe file takes the removed one's record;
// the late write must not land in the new file.
func TestLateWriteMissesReusedRecord(t *testing.T) {
	const (
		span    = 64 << 10
		writeAt = sim.Time(2 * time.Millisecond)
		after   = 200 * time.Microsecond
		hold    = 2 * time.Millisecond
	)
	c := pvfs.NewCluster(sim.NewEngine(), pvfs.DefaultConfig(), 1, 2)
	late, other := c.Clients[0], c.Clients[1]
	srv := c.Servers[0].HCA().Node()
	policy := &holdSmall{from: int(late.Node().ID), to: int(srv.ID), maxSize: 96, since: writeAt, extra: hold}
	c.Net.SetFaults(policy)
	gather := pvfs.OpOptions{Transfer: pvfs.ForceGather}
	fill := func(cl *pvfs.Client, b byte) mem.Addr {
		a := cl.Space().Malloc(span)
		sim.Must(cl.Space().Write(a, bytes.Repeat([]byte{b}, span)))
		return a
	}
	var removedAt, freshDone sim.Time
	c.Eng.GoOn(late.Node().Group(), "late", func(p *sim.Proc) {
		fh := late.Open(p, "doomed")
		src := fill(late, 0xAA)
		sim.Must(fh.Write(p, src, span, 0, gather)) // the stripe file exists
		p.Sleep(writeAt.Sub(p.Now()))
		sim.Must(fh.Write(p, src, span, 0, gather))
	})
	c.Eng.GoOn(other.Node().Group(), "other", func(q *sim.Proc) {
		q.Sleep(writeAt.Sub(q.Now()) + after)
		other.Remove(q, "doomed")
		removedAt = q.Now()
		sim.Must(other.Open(q, "fresh").Write(q, fill(other, 0xF1), span, 0, gather))
		freshDone = q.Now()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if policy.heldAt == 0 || policy.heldAt > removedAt || freshDone > policy.heldAt.Add(hold) {
		t.Fatalf("the new file was not written while the notice was held: notice held at %v for %v, removed at %v, new file written by %v",
			policy.heldAt, hold, removedAt, freshDone)
	}
	dst := other.Space().Malloc(span)
	c.Eng.GoOn(other.Node().Group(), "check", func(q *sim.Proc) {
		sim.Must(other.Open(q, "fresh").Read(q, dst, span, 0, pvfs.OpOptions{}))
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := other.Space().Read(dst, span)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xF1 {
			t.Fatalf("the new file holds byte %#x at %d, not its own 0xf1: the removed file's late write landed in it", b, i)
		}
	}
}
