package pvfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/stats"
)

// stormPlan is the end-to-end stress plan: probabilistic WR completion
// errors and registration rejections, disk faults, one partition that heals,
// and one daemon crash/restart. Server 0 hosts the manager and never
// crashes.
func stormPlan(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed:          seed,
		WRErrorRate:   0.02,
		RegFailRate:   0.3,
		DiskErrorRate: 0.01,
		DiskSlowRate:  0.05,
		Spikes: []fault.Spike{
			{From: fault.Wildcard, To: 1, At: 100 * time.Microsecond, Dur: 300 * time.Microsecond, Extra: 40 * time.Microsecond},
		},
		Cuts: []fault.Cut{
			// 4 servers + 4 clients: node 4 is cn0, node 1 is io1.
			{A: 4, B: 1, At: 200 * time.Microsecond, Dur: 400 * time.Microsecond},
		},
		Crashes: []fault.Crash{
			{Server: 2, At: 300 * time.Microsecond, Down: 600 * time.Microsecond},
		},
	}
}

// stormWorkload writes a strided pattern from every client, syncs, reads it
// back, and verifies the bytes. Returns the verified read-back images.
func stormWorkload(t *testing.T, c *Cluster) [][]byte {
	t.Helper()
	const (
		segLen = 4 << 10
		nSegs  = 48
		stride = 16 << 10
	)
	images := make([][]byte, len(c.Clients))
	app(t, c, func(p *sim.Proc) {
		wg := c.Eng.NewWaitGroup()
		for ci, cl := range c.Clients {
			ci, cl := ci, cl
			wg.Add(1)
			c.Eng.Go("worker", func(q *sim.Proc) {
				defer wg.Done()
				fh := cl.Open(q, "storm")
				total := int64(segLen * nSegs)
				addr, want := fill(cl, total, byte(ci))
				var segs []ib.SGE
				var accs []OffLen
				for i := 0; i < nSegs; i++ {
					segs = append(segs, ib.SGE{Addr: addr + mem.Addr(i*segLen), Len: segLen})
					// Interleave clients in the file so every server sees
					// every client.
					accs = append(accs, OffLen{Off: int64(ci)*segLen + int64(i)*stride*int64(len(c.Clients)), Len: segLen})
				}
				// Gather-sized op (above FastBufSize) so faults exercise
				// the rendezvous path and the pack fallback.
				if err := fh.WriteList(q, segs, accs, OpOptions{}); err != nil {
					t.Errorf("cn%d: WriteList: %v", ci, err)
					return
				}
				fh.Sync(q)
				rdAddr := cl.Space().Malloc(total)
				var rdSegs []ib.SGE
				for i := 0; i < nSegs; i++ {
					rdSegs = append(rdSegs, ib.SGE{Addr: rdAddr + mem.Addr(i*segLen), Len: segLen})
				}
				if err := fh.ReadList(q, rdSegs, accs, OpOptions{}); err != nil {
					t.Errorf("cn%d: ReadList: %v", ci, err)
					return
				}
				got, err := cl.Space().Read(rdAddr, total)
				if err != nil {
					t.Errorf("cn%d: read-back: %v", ci, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("cn%d: read-back differs from written data", ci)
					return
				}
				images[ci] = got
			})
		}
		wg.Wait(p)
	})
	return images
}

// TestRecoveryUnderFaultStorm is the headline end-to-end test: a 4+4
// cluster runs a strided list-I/O workload through injected WR errors, a
// partition that heals, registration pressure, disk faults, and one daemon
// crash/restart — and loses no data.
func TestRecoveryUnderFaultStorm(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = stormPlan(7)
	c := NewCluster(sim.NewEngine(), cfg, 4, 4)
	stormWorkload(t, c)

	s := c.Snapshot()
	if s.FaultWRErrors == 0 {
		t.Error("no WR errors injected — plan not exercised")
	}
	if s.Retries == 0 || s.Timeouts == 0 {
		t.Errorf("recovery not exercised: retries=%d timeouts=%d", s.Retries, s.Timeouts)
	}
	if s.Fallbacks == 0 {
		t.Errorf("gather->pack fallback not exercised (regFailures=%d)", s.FaultRegFailures)
	}
	if s.Crashes != 1 || s.Restarts != 1 {
		t.Errorf("crash/restart = %d/%d, want 1/1", s.Crashes, s.Restarts)
	}
	if got := c.Manager.IodRegistrations()[2]; got == 0 {
		t.Error("restarted daemon io2 never re-registered with the manager")
	}
	if c.Servers[2].Down() {
		t.Error("io2 still down at end of run")
	}
}

// TestFaultDeterminism runs the same (workload, plan, seed) triple twice and
// demands byte-identical read-back, identical final virtual times, and
// identical fault/recovery counters.
func TestFaultDeterminism(t *testing.T) {
	run := func() ([][]byte, sim.Time, stats.Snapshot, fault.Counters) {
		cfg := DefaultConfig()
		cfg.Faults = stormPlan(42)
		c := NewCluster(sim.NewEngine(), cfg, 4, 4)
		images := stormWorkload(t, c)
		return images, c.Eng.Now(), c.Snapshot(), c.Faults.Counters
	}
	img1, t1, s1, f1 := run()
	img2, t2, s2, f2 := run()
	if t1 != t2 {
		t.Errorf("final virtual times differ: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("counter snapshots differ:\n%+v\n%+v", s1, s2)
	}
	if f1 != f2 {
		t.Errorf("injector counters differ: %+v vs %+v", f1, f2)
	}
	for i := range img1 {
		if !bytes.Equal(img1[i], img2[i]) {
			t.Errorf("cn%d: read-back images differ between runs", i)
		}
	}
}

// TestEmptyPlanZeroOverhead checks that attaching no fault plan leaves
// virtual time exactly where the fault-unaware code put it: the recovery
// machinery must be pay-for-use.
func TestEmptyPlanZeroOverhead(t *testing.T) {
	run := func(cfg Config) sim.Time {
		c := NewCluster(sim.NewEngine(), cfg, 4, 4)
		stormWorkload(t, c)
		return c.Eng.Now()
	}
	base := run(DefaultConfig())
	// An explicitly attached-then-detached plane must also cost nothing.
	cfg := DefaultConfig()
	c := NewCluster(sim.NewEngine(), cfg, 4, 4)
	c.AttachFaults(&fault.Plan{Seed: 1})
	c.AttachFaults(nil)
	stormWorkload(t, c)
	if got := c.Eng.Now(); got != base {
		t.Errorf("detached fault plane changed timing: %v vs %v", got, base)
	}
	if s := c.Snapshot(); s.Retries+s.Timeouts+s.Fallbacks != 0 {
		t.Errorf("recovery counters moved on a fault-free run: %+v", s)
	}
}

// TestCrashValidation rejects plans that crash the manager's host.
func TestCrashValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("crashing server 0 should panic (hosts the manager)")
		}
	}()
	cfg := DefaultConfig()
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Server: 0, At: time.Millisecond, Down: time.Millisecond}}}
	NewCluster(sim.NewEngine(), cfg, 4, 4)
}

// TestUnsentRecordGoesBack syncs, stats and removes a file while the link
// from the client to one of its servers is cut. Every request record whose
// send fails is handed back to its pool before the retry, so once the link
// heals and the retries get through, no record is left out.
func TestUnsentRecordGoesBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &fault.Plan{Seed: 1}
	c := NewCluster(sim.NewEngine(), cfg, 2, 1)
	cl := c.Clients[0]
	c.Eng.GoOn(cl.node.Group(), "script", func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		c.AttachFaults(&fault.Plan{Seed: 1, Cuts: []fault.Cut{
			{A: int(cl.node.ID), B: int(c.Servers[1].node.ID), Dur: 200 * time.Microsecond},
		}})
		fh.Sync(p)
		fh.Stat(p)
		cl.Remove(p, "f")
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Retries == 0 || s.FaultDrops == 0 {
		t.Fatalf("the cut failed no send: %d retries, %d drops", s.Retries, s.FaultDrops)
	}
	if out := c.census()["pvfs.records"]; out != 0 {
		t.Errorf("pvfs.records: %d taken and not recycled", out)
	}
	c.Eng.Shutdown()
}

// TestWholeFileReplyKind pins what fileShare accepts: the reply to a Sync,
// Stat or Remove is the kind after its request's, and a record of any other
// kind with the right sequence number is a protocol error, as on the data
// path.
func TestWholeFileReplyKind(t *testing.T) {
	reqs := []recKind{recSync, recStat, recRemove}
	for _, k := range reqs {
		if got, want := (k + 1).String(), k.String()+"-resp"; got != want {
			t.Errorf("the kind after %v is %v, want %v", k, got, want)
		}
		for _, other := range reqs {
			reply := &record{Kind: other + 1}
			r, err := asReply(reply, k+1)
			if ok := err == nil && r == reply; ok != (other == k) {
				t.Errorf("%v request: %v reply accepted %t", k, other+1, ok)
			}
		}
		if _, err := asReply(&record{Kind: k}, k+1); err == nil {
			t.Errorf("%v request: its own kind accepted as the reply", k)
		}
	}
}

// TestLostWriteReadyPutsStagingBack cuts the link between a client and its
// server just as the server answers a gather write's request with the
// write-ready reply that lends it a staging buffer. The server aborts the
// write and must put the buffer back: once the link heals and the client's
// retry completes, every staging buffer and every byte of the server's
// scratch is home. The cut's start is swept until one run loses exactly
// that reply; every run must end with nothing out.
func TestLostWriteReadyPutsStagingBack(t *testing.T) {
	const total = 16 << 10
	hit := false
	for at := sim.Duration(0); at < 100*time.Microsecond && !hit; at += time.Microsecond {
		cfg := DefaultConfig()
		cfg.Faults = &fault.Plan{Seed: 1}
		c := NewCluster(sim.NewEngine(), cfg, 1, 1)
		tr := c.EnableSpans()
		cl, srv := c.Clients[0], c.Servers[0]
		c.Eng.GoOn(cl.node.Group(), "script", func(p *sim.Proc) {
			fh := cl.Open(p, "f")
			src, want := fill(cl, total, 3)
			c.AttachFaults(&fault.Plan{Seed: 1, Cuts: []fault.Cut{
				{A: int(cl.node.ID), B: int(srv.node.ID), At: at, Dur: 20 * time.Microsecond},
			}})
			segs := []ib.SGE{{Addr: src, Len: total / 2}, {Addr: src + total/2, Len: total / 2}}
			if err := fh.WriteList(p, segs, []OffLen{{Off: 0, Len: total}}, OpOptions{Transfer: ForceGather}); err != nil {
				t.Errorf("cut at %v: WriteList: %v", at, err)
				return
			}
			dst := cl.Space().Malloc(total)
			if err := fh.Read(p, dst, total, 0, OpOptions{}); err != nil {
				t.Errorf("cut at %v: Read: %v", at, err)
			} else if got, err := cl.Space().Read(dst, total); err != nil || !bytes.Equal(got, want) {
				t.Errorf("cut at %v: read-back differs (%v)", at, err)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		for _, s := range tr.Spans() {
			hit = hit || s.Kind == "iod-abort" && strings.Contains(s.Attrs, "write-ready reply lost")
		}
		census := c.census()
		for _, pool := range []string{"ib.staging", "pvfs.iod-scratch"} {
			if out := census[pool]; out != 0 {
				t.Errorf("cut at %v: %s: %d taken and not recycled", at, pool, out)
			}
		}
		c.Eng.Shutdown()
	}
	if !hit {
		t.Fatal("no cut lost the write-ready reply")
	}
}

// TestLateRDMAWriteMissesRelentStaging delays a client's gather RDMA write
// past the iod's ServerTimeout with a latency spike on its link. The iod
// gives up on the rendezvous and lends its one staging buffer to another
// client's read, whose bytes the buffer holds when the late write arrives.
// The write carries the key of the earlier lend, so it must land nowhere:
// the reader gets the bytes it wrote, and the late writer's retry still
// puts its own bytes in the file.
//
// The schedule, from the spikes' start: the late write's rendezvous opens
// at about 490 µs and expires at 645 µs, when the read, asked at 300 µs and
// waiting for the buffer since, takes it; the late RDMA write lands at
// about 685 µs, the read is served at about 700 µs and completes inside its
// own 150 µs.
func TestLateRDMAWriteMissesRelentStaging(t *testing.T) {
	const (
		lateLen = 16 << 10
		readLen = 32 << 10
	)
	cfg := DefaultConfig()
	cfg.StagingBuffers = 1
	cfg.Recovery.ServerTimeout = 150 * time.Microsecond
	cfg.Faults = &fault.Plan{Seed: 1}
	c := NewCluster(sim.NewEngine(), cfg, 1, 2)
	late, reader, srv := c.Clients[0], c.Clients[1], c.Servers[0]
	gather := OpOptions{Transfer: ForceGather}
	app(t, c, func(p *sim.Proc) {
		fa, fb := late.Open(p, "late"), reader.Open(p, "read")
		src, want := fill(reader, readLen, 9)
		if err := fb.Write(p, src, readLen, 0, gather); err != nil {
			t.Fatalf("setup write: %v", err)
		}
		c.AttachFaults(&fault.Plan{Seed: 1, Spikes: []fault.Spike{
			{From: int(late.node.ID), To: int(srv.node.ID), Dur: 2 * time.Millisecond, Extra: 160 * time.Microsecond},
			{From: int(reader.node.ID), To: int(srv.node.ID), Dur: 2 * time.Millisecond, Extra: 20 * time.Microsecond},
		}})
		wg := c.Eng.NewWaitGroup()
		wg.Add(2)
		var lateWant []byte
		c.Eng.Go("late", func(q *sim.Proc) {
			defer wg.Done()
			var addr mem.Addr
			addr, lateWant = fill(late, lateLen, 0xA0)
			if err := fa.Write(q, addr, lateLen, 0, gather); err != nil {
				t.Errorf("late write: %v", err)
			}
		})
		c.Eng.Go("reader", func(q *sim.Proc) {
			defer wg.Done()
			q.Sleep(300 * time.Microsecond)
			dst := reader.Space().Malloc(readLen)
			if err := fb.Read(q, dst, readLen, 0, gather); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if got, err := reader.Space().Read(dst, readLen); err != nil || !bytes.Equal(got, want) {
				t.Errorf("the read lost its bytes to the late write (%v)", err)
			}
		})
		wg.Wait(p)
		dst := late.Space().Malloc(lateLen)
		if err := fa.Read(p, dst, lateLen, 0, OpOptions{}); err != nil {
			t.Fatalf("read-back: %v", err)
		}
		if got, _ := late.Space().Read(dst, lateLen); !bytes.Equal(got, lateWant) {
			t.Error("the late writer's retry did not land")
		}
	})
	// One abort, the late write's: the read completed at its first lend.
	if s := c.Snapshot(); s.ServerAborts != 1 || s.Retries != 1 {
		t.Errorf("%d aborts and %d retries, want the late write's one", s.ServerAborts, s.Retries)
	}
}

// TestExpiredRendezvousPutsStagingBack slows a client's link to its server
// for the first attempt of a gather write, so that the write-done notice
// comes after the server's rendezvous timeout. The server aborts the write
// and must put the staging buffer back: once the client's retry completes,
// every staging buffer and every byte of the server's scratch is home, and
// every span has ended.
func TestExpiredRendezvousPutsStagingBack(t *testing.T) {
	const total = 16 << 10
	cfg := DefaultConfig()
	cfg.Recovery.ServerTimeout = 150 * time.Microsecond
	cfg.Faults = &fault.Plan{Seed: 1}
	c := NewCluster(sim.NewEngine(), cfg, 1, 1)
	tr := c.EnableSpans()
	cl, srv := c.Clients[0], c.Servers[0]
	c.Eng.GoOn(cl.node.Group(), "script", func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		src, want := fill(cl, total, 5)
		c.AttachFaults(&fault.Plan{Seed: 1, Spikes: []fault.Spike{
			{From: int(cl.node.ID), To: int(srv.node.ID), Dur: time.Millisecond, Extra: 160 * time.Microsecond},
		}})
		if err := fh.Write(p, src, total, 0, OpOptions{Transfer: ForceGather}); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		dst := cl.Space().Malloc(total)
		if err := fh.Read(p, dst, total, 0, OpOptions{}); err != nil {
			t.Errorf("Read: %v", err)
		} else if got, err := cl.Space().Read(dst, total); err != nil || !bytes.Equal(got, want) {
			t.Errorf("read-back differs (%v)", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, s := range tr.Spans() {
		hit = hit || s.Kind == "iod-abort" && strings.Contains(s.Attrs, "rendezvous expired")
	}
	if !hit {
		t.Fatal("the rendezvous did not expire")
	}
	census := c.census()
	for _, pool := range []string{"ib.staging", "pvfs.iod-scratch", "trace.open"} {
		if out := census[pool]; out != 0 {
			t.Errorf("%s: %d taken and not given back", pool, out)
		}
	}
	c.Eng.Shutdown()
}

// failDraw completes the nth work request its adapter posts in error, and
// no other.
type failDraw struct{ n, drawn int }

func (f *failDraw) WRError(sim.Time, string) bool { f.drawn++; return f.drawn == f.n }
func (f *failDraw) RegFail(sim.Time, string) bool { return false }

// oneAttempt is a cluster with a fault plane that injects nothing of its
// own and a client that gives a chunk up after its first failed attempt, so
// that an operation returns what that attempt failed with.
func oneAttempt(wire Wire) *Cluster {
	cfg := DefaultConfig()
	cfg.Wire = wire
	cfg.Faults = &fault.Plan{Seed: 1}
	cfg.Recovery.MaxRetries = 1
	return NewCluster(sim.NewEngine(), cfg, 1, 1)
}

// TestRDMAFaultFailsTheAttempt: a gather write's RDMA write, or a scatter
// read's RDMA read, that completes in error fails the attempt with that
// completion error — not with whatever the next work request on the
// broken queue pair runs into.
func TestRDMAFaultFailsTheAttempt(t *testing.T) {
	const total = 16 << 10
	for _, op := range []string{"rdma-write", "rdma-read"} {
		t.Run(op, func(t *testing.T) {
			c := oneAttempt(WireVerbs)
			cl := c.Clients[0]
			gather := OpOptions{Transfer: ForceGather}
			app(t, c, func(p *sim.Proc) {
				fh := cl.Open(p, "f")
				src, _ := fill(cl, total, 1)
				if op == "rdma-read" {
					if err := fh.Write(p, src, total, 0, gather); err != nil {
						t.Fatalf("setup write: %v", err)
					}
				}
				// The request's send is the first work request, the
				// RDMA the second.
				cl.hca.SetFaults(&failDraw{n: 2})
				var err error
				if op == "rdma-write" {
					err = fh.Write(p, src, total, 0, gather)
				} else {
					err = fh.Read(p, src, total, 0, gather)
				}
				var wc *ib.WCError
				if !errors.As(err, &wc) || wc.Op != op {
					t.Errorf("%s completing in error: the operation returned %v", op, err)
				}
			})
		})
	}
}

// TestPackFromUnmappedSegmentFails: a packed write whose user segment is
// not mapped fails instead of pushing whatever the staging buffer held.
func TestPackFromUnmappedSegmentFails(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		unmapped := cl.Space().Malloc(mem.PageSize) + mem.PageSize // past the last mapping
		if err := fh.Write(p, unmapped, 4<<10, 0, OpOptions{Transfer: ForcePack}); err == nil {
			t.Error("a packed write from an unmapped segment succeeded")
		}
	})
}

// TestStreamWriteLostReplyFails: over stream sockets, a write whose reply
// the server could not send is not reported done.
func TestStreamWriteLostReplyFails(t *testing.T) {
	c := oneAttempt(WireStream)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		src, _ := fill(cl, 4<<10, 2)
		// The write's reply is the first work request the server posts.
		c.Servers[0].hca.SetFaults(&failDraw{n: 1})
		if err := fh.Write(p, src, 4<<10, 0, OpOptions{}); !errors.Is(err, errTimeout) {
			t.Errorf("a stream write whose reply was lost returned %v, want a timeout", err)
		}
	})
}

// TestRegPressureFallsBackToPack: under a fault plane that rejects every
// registration, a gathered write degrades to Pack/Unpack through the
// pre-registered buffers — counted as one fallback — whether it registers
// its buffers by OGR through the cache or declares their allocation.
func TestRegPressureFallsBackToPack(t *testing.T) {
	const total = 128 << 10
	for _, reg := range []struct {
		name   string
		policy RegPolicy
	}{{"ogr", RegCached}, {"declared", RegDeclared}} {
		t.Run(reg.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Faults = &fault.Plan{Seed: 1, RegFailRate: 1}
			c := NewCluster(sim.NewEngine(), cfg, 2, 1)
			cl := c.Clients[0]
			app(t, c, func(p *sim.Proc) {
				fh := cl.Open(p, "f")
				src, want := fill(cl, total, 3)
				opts := OpOptions{Reg: reg.policy, Allocation: mem.Extent{Addr: src, Len: total}}
				if err := fh.Write(p, src, total, 0, opts); err != nil {
					t.Fatalf("write under registration pressure: %v", err)
				}
				dst := cl.Space().Malloc(total)
				sim.Must(fh.Read(p, dst, total, 0, OpOptions{Transfer: ForcePack}))
				if got, err := cl.Space().Read(dst, total); err != nil || !bytes.Equal(got, want) {
					t.Errorf("read back other bytes than were written (%v)", err)
				}
			})
			if s := c.Snapshot(); s.Fallbacks != 1 {
				t.Errorf("%d fallbacks, want 1", s.Fallbacks)
			}
		})
	}
}

// TestRecoverableAllocatesNothing: classifying a failed attempt's error —
// a completion error wrapped on its way up, or joined with another — needs
// no allocation, and a registration bug is still not worth a retry.
func TestRecoverableAllocatesNothing(t *testing.T) {
	wc := fmt.Errorf("pvfs: gather write: %w", &ib.WCError{Status: ib.WCWorkRequestError, Op: "rdma-write"})
	joined := errors.Join(errors.New("first"), wc)
	bug := fmt.Errorf("pvfs: list buffer registration: %w", ib.ErrNotAllocated)
	if !recoverable(wc) || !recoverable(joined) || recoverable(bug) {
		t.Fatalf("recoverable: wrapped %v, joined %v, registration bug %v; want true, true, false",
			recoverable(wc), recoverable(joined), recoverable(bug))
	}
	if n := testing.AllocsPerRun(100, func() { recoverable(wc); recoverable(bug) }); n != 0 {
		t.Errorf("%.0f allocations a classification, want 0", n)
	}
}

// TestReattachFaultsAllocFree: on a warm cluster — one that has run the
// storm under a plan, so its injector's streams are registered and seeded —
// arming a plan, running the daemon crash and restart it schedules, and
// detaching it allocates nothing: the plan re-arms the cluster's one
// injector in place, so the count is 0 on a 2+2 cluster and on a 4+4 one.
// The detached injector's tallies stay readable until the next plan, which
// starts them at zero.
func TestReattachFaultsAllocFree(t *testing.T) {
	for _, n := range []int{2, 4} {
		c := NewCluster(sim.NewEngine(), DefaultConfig(), n, n)
		plan := stormPlan(3)
		plan.Crashes = []fault.Crash{{Server: 1, At: 300 * time.Microsecond, Down: 600 * time.Microsecond}}
		inj := c.AttachFaults(plan)
		stormWorkload(t, c)
		c.AttachFaults(nil)
		if inj.Totals() == (fault.Counters{}) {
			t.Fatalf("%d+%d cluster: the detached injector reads no faults after the storm", n, n)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if c.AttachFaults(plan) != inj || inj.Totals() != (fault.Counters{}) {
				t.Fatalf("%d+%d cluster: re-arming made another injector or kept its tallies", n, n)
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			c.AttachFaults(nil)
		})
		if allocs != 0 {
			t.Errorf("%d+%d cluster: %.1f allocations to arm, crash, restart and detach a plan, want 0", n, n, allocs)
		}
		c.Eng.Shutdown()
	}
}

// restarted is what each iod of restartCluster held at 4 ms, between its
// restart and run: its name for the file and whether it had it open.
type restarted struct {
	name string
	open bool
}

// restartCluster is a 2+1 cluster whose io1 crashes at 2 ms and restarts at
// 3 ms. Its client has written four stripes of the file "f" — two on each
// iod — before the crash, and run comes back at 5 ms, after the restart,
// with the bytes written.
func restartCluster(t *testing.T, shards int, run func(p *sim.Proc, fh *FileHandle)) (*Cluster, []byte, [2]restarted) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Server: 1, At: 2 * time.Millisecond, Down: time.Millisecond}}}
	c := NewCluster(sim.NewEngine(), cfg, 2, 1)
	cl := c.Clients[0]
	var want []byte
	var fileID int64
	c.Eng.GoOn(cl.node.Group(), "app", func(p *sim.Proc) {
		fh := cl.Open(p, "f")
		fileID = fh.id
		addr, data := fill(cl, 4*cfg.StripeSize, 3)
		want = data
		sim.Must(fh.Write(p, addr, int64(len(data)), 0, OpOptions{}))
		if p.Now() >= sim.Time(2*time.Millisecond) {
			t.Errorf("the file was written by %v, not before the crash", p.Now())
		}
		p.Sleep(sim.Time(5 * time.Millisecond).Sub(p.Now()))
		run(p, fh)
	})
	var seen [2]restarted
	for i, s := range c.Servers {
		c.Eng.GoOn(s.node.Group(), "probe", func(p *sim.Proc) {
			p.Sleep(4 * time.Millisecond)
			_, open := s.files[fileID]
			seen[i] = restarted{s.names[fileID], open}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Crashes != 1 || s.Restarts != 1 {
		t.Fatalf("crash/restart = %d/%d, want 1/1", s.Crashes, s.Restarts)
	}
	if seen[0].name == "" || seen[1].name == "" || !seen[0].open || seen[1].open {
		t.Fatalf("the iods held %+v between the restart and the access, want a name on each, the file open on io0 alone", seen)
	}
	return c, want, seen
}

// TestRemoveAfterRestartFreesStripe: a file removed after an iod restarted
// and before it reopened the file loses its stripe file there too, and the
// iod's name for it goes back to the free list, as on the iod that never
// crashed.
func TestRemoveAfterRestartFreesStripe(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, _, seen := restartCluster(t, shards, func(p *sim.Proc, fh *FileHandle) {
				fh.client.Remove(p, "f")
			})
			for i, s := range c.Servers {
				name := seen[i].name
				if len(s.names) != 0 || len(s.files) != 0 || !slices.Equal(s.freeNames, []string{name}) {
					t.Errorf("io%d: %d names, %d open files and free names %q after the remove, want 0, 0 and [%q]", i, len(s.names), len(s.files), s.freeNames, name)
				}
				c.Eng.GoOn(s.node.Group(), "probe", func(p *sim.Proc) {
					if s.fs.Remove(p, name) {
						t.Errorf("io%d still holds stripe file %s", i, name)
					}
				})
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStripeSlotSurvivesRestart: a restarted iod reopens a file under the
// name it had before the crash and reads back the bytes written then.
func TestStripeSlotSurvivesRestart(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var got []byte
			c, want, seen := restartCluster(t, shards, func(p *sim.Proc, fh *FileHandle) {
				cl := fh.client
				n := 4 * cl.cluster.Cfg.StripeSize
				buf := cl.Space().Malloc(n)
				sim.Must(fh.Read(p, buf, n, 0, OpOptions{}))
				var err error
				if got, err = cl.Space().Read(buf, n); err != nil {
					t.Error(err)
				}
			})
			if !bytes.Equal(got, want) {
				t.Error("the file read back after the restart differs from what was written before the crash")
			}
			s := c.Servers[1]
			for id, name := range s.names {
				if f, open := s.files[id]; !open || f.Name() != seen[1].name || name != seen[1].name {
					t.Errorf("io1 after the read: file open %t under %q, want open under %q", open, name, seen[1].name)
				}
			}
			if len(s.names) != 1 || s.nextSlot != 1 {
				t.Errorf("io1 after the read: %d names from %d slots, want 1 from 1", len(s.names), s.nextSlot)
			}
		})
	}
}
