package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
	"pvfsib/internal/sim/simtest"
	"pvfsib/internal/simnet"
)

// world builds an n-rank MPI world on n fresh compute nodes.
func world(t *testing.T, n int, acct func(rank int, bytes int64)) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	var hcas []*ib.HCA
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cn%d", i)
		hcas = append(hcas, ib.NewHCA(net.AddNode(name), mem.NewAddrSpace(name), ib.DefaultParams()))
	}
	return eng, NewWorld(eng, hcas, acct)
}

// spawn runs fn on every rank and drives the simulation.
func spawn(t *testing.T, eng *sim.Engine, w *World, fn func(p *sim.Proc, r *Rank)) {
	t.Helper()
	for i := 0; i < w.Size(); i++ {
		r := w.Rank(i)
		eng.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) { fn(p, r) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	eng, w := world(t, 2, nil)
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.Send(p, 1, []byte("hello"))
		} else {
			if got := r.Recv(p, 0); string(got) != "hello" {
				t.Errorf("got %q", got)
			}
		}
	})
}

func TestSmallMessageLatencyMatchesMVAPICH(t *testing.T) {
	eng, w := world(t, 2, nil)
	var arrive sim.Time
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.Send(p, 1, []byte{1, 2, 3, 4})
		} else {
			r.Recv(p, 0)
			arrive = p.Now()
		}
	})
	// Table 2: MVAPICH 4-byte latency 6.8 µs.
	if arrive < sim.Time(6500*time.Nanosecond) || arrive > sim.Time(8500*time.Nanosecond) {
		t.Errorf("MPI 4-byte latency %v, want ≈6.8-7.6µs", arrive)
	}
}

func TestLargeMessageBandwidthMatchesMVAPICH(t *testing.T) {
	eng, w := world(t, 2, nil)
	const size = 32 * simnet.MB
	var elapsed sim.Duration
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.Send(p, 1, make([]byte, size))
		} else {
			r.Recv(p, 0)
			elapsed = sim.Duration(p.Now())
		}
	})
	bw := float64(size) / elapsed.Seconds() / simnet.MB
	if bw < 790 || bw > 830 {
		t.Errorf("MPI bandwidth %.0f MB/s, want ≈822 (Table 2)", bw)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, w := world(t, 4, nil)
	var after []sim.Time
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		// Ranks arrive at very different times.
		p.Sleep(time.Duration(r.ID()) * time.Millisecond)
		r.Barrier(p)
		after = append(after, p.Now())
	})
	min, max := after[0], after[0]
	for _, a := range after {
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if min < sim.Time(3*time.Millisecond) {
		t.Errorf("a rank left the barrier at %v, before the last arrival", min)
	}
	if max-min > sim.Time(100*time.Microsecond) {
		t.Errorf("barrier exit spread %v too large", max-min)
	}
}

func TestBcast(t *testing.T) {
	eng, w := world(t, 4, nil)
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		var data []byte
		if r.ID() == 2 {
			data = []byte("payload")
		}
		got := r.Bcast(p, 2, data)
		if string(got) != "payload" {
			t.Errorf("rank %d got %q", r.ID(), got)
		}
	})
}

func TestGatherAndAllgather(t *testing.T) {
	eng, w := world(t, 4, nil)
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		mine := []byte{byte(r.ID() + 10)}
		parts := r.Gather(p, 0, mine)
		if r.ID() == 0 {
			for i, part := range parts {
				if len(part) != 1 || part[0] != byte(i+10) {
					t.Errorf("gather[%d] = %v", i, part)
				}
			}
		} else if parts != nil {
			t.Error("non-root got gather results")
		}
		all := r.Allgather(p, mine)
		for i, part := range all {
			if len(part) != 1 || part[0] != byte(i+10) {
				t.Errorf("rank %d allgather[%d] = %v", r.ID(), i, part)
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		eng, w := world(t, n, nil)
		spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
			parts := make([][]byte, n)
			for j := range parts {
				parts[j] = bytes.Repeat([]byte{byte(10*r.ID() + j)}, j+1)
			}
			got := r.Alltoallv(p, parts)
			for src, g := range got {
				want := bytes.Repeat([]byte{byte(10*src + r.ID())}, r.ID()+1)
				if !bytes.Equal(g, want) {
					t.Errorf("n=%d rank %d from %d: got %v want %v", n, r.ID(), src, g, want)
				}
			}
		})
	}
}

func TestAcctCountsClientClientBytes(t *testing.T) {
	var total int64
	eng, w := world(t, 2, func(_ int, n int64) { total += n })
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.Send(p, 1, make([]byte, 1000))
		} else {
			r.Recv(p, 0)
		}
	})
	if total != 1000 {
		t.Errorf("accounted %d bytes, want 1000", total)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	eng, w := world(t, 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.Send(p, 0, nil)
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	eng, w := world(t, 4, nil)
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		v := int64(r.ID() + 1) // 1..4
		sum := r.Reduce(p, 2, v, OpSum)
		if r.ID() == 2 && sum != 10 {
			t.Errorf("Reduce sum = %d, want 10", sum)
		}
		if r.ID() != 2 && sum != 0 {
			t.Errorf("non-root Reduce = %d, want 0", sum)
		}
		if got := r.Allreduce(p, v, OpMax); got != 4 {
			t.Errorf("Allreduce max = %d, want 4", got)
		}
		if got := r.Allreduce(p, v, OpMin); got != 1 {
			t.Errorf("Allreduce min = %d, want 1", got)
		}
		if got := r.Allreduce(p, -v, OpSum); got != -10 {
			t.Errorf("Allreduce sum = %d, want -10 (negatives round-trip)", got)
		}
	})
}

// TestSendCopiesBody pins the copying contract (the ledger's all-to-all
// kernel hands one set of parts to every rank, every iteration): the sender
// may overwrite a body as soon as Send returns, and the receiver still reads
// what was sent.
func TestSendCopiesBody(t *testing.T) {
	eng, w := world(t, 2, nil)
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			body := []byte("first")
			r.Send(p, 1, body)
			copy(body, "XXXXX")
			r.Send(p, 1, body)
			return
		}
		first, second := r.Recv(p, 0), r.Recv(p, 0)
		if string(first) != "first" || string(second) != "XXXXX" {
			t.Errorf("got %q then %q, want \"first\" then \"XXXXX\"", first, second)
		}
	})
}

// TestAlltoallvSharesParts is the kernel's shape: every rank passes the same
// parts, twice, and nobody's copy is disturbed by another rank's release.
func TestAlltoallvSharesParts(t *testing.T) {
	const n = 4
	eng, w := world(t, n, nil)
	parts := make([][]byte, n)
	for j := range parts {
		parts[j] = bytes.Repeat([]byte{byte(j + 1)}, 100)
	}
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		for iter := 0; iter < 2; iter++ {
			got := r.Alltoallv(p, parts)
			for src, g := range got {
				if !bytes.Equal(g, parts[r.ID()]) {
					t.Errorf("iteration %d: rank %d from %d: got %v...", iter, r.ID(), src, g[:4])
				}
				if src != r.ID() {
					r.Scratch().Put(g)
				}
			}
		}
	})
	for j, part := range parts {
		if !bytes.Equal(part, bytes.Repeat([]byte{byte(j + 1)}, 100)) {
			t.Errorf("the caller's parts[%d] changed", j)
		}
	}
}

// TestSendOwnedHandsOverTheBody: what SendOwned is given is what Recv
// returns, the same backing array, not a copy of it.
func TestSendOwnedHandsOverTheBody(t *testing.T) {
	eng, w := world(t, 2, nil)
	body := w.Rank(0).Scratch().Get(4096)
	copy(body, "owned")
	spawn(t, eng, w, func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.SendOwned(p, 1, body)
			return
		}
		got := r.Recv(p, 0)
		if &got[0] != &body[0] || len(got) != len(body) {
			t.Error("Recv returned another array than SendOwned was given")
		}
		if string(got[:5]) != "owned" {
			t.Errorf("got %q", got[:5])
		}
	})
	if hc := w.HostCost(); hc.BytesCopied != 0 {
		t.Errorf("an owning send copied %d bytes", hc.BytesCopied)
	}
}

// BenchmarkAlltoallvOwned is the two-phase exchange's transport: four ranks
// trade 64 kB parts taken from their pools and release what they receive.
// It allocates nothing; a payload-sized allocation after the first exchange
// is a pool miss and fails the benchmark.
func BenchmarkAlltoallvOwned(b *testing.B) {
	const n, size = 4, 64 << 10
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.DefaultParams())
	hcas := make([]*ib.HCA, n)
	for i := range hcas {
		name := fmt.Sprintf("cn%d", i)
		hcas[i] = ib.NewHCA(net.AddNode(name), mem.NewAddrSpace(name), ib.DefaultParams())
	}
	w := NewWorld(eng, hcas, nil)
	exchange := func(p *sim.Proc, r *Rank, parts [][]byte) {
		for j := range parts {
			parts[j] = r.Scratch().Get(size)
		}
		for _, g := range r.AlltoallvOwned(p, parts) {
			r.Scratch().Put(g)
		}
	}
	misses := func() int64 { hc := w.HostCost(); return hc.Fresh }
	var warm int64
	b.ReportAllocs()
	for i := 0; i < n; i++ {
		r := w.Rank(i)
		eng.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			parts := make([][]byte, n)
			exchange(p, r, parts)
			r.Barrier(p)
			if r.ID() == 0 {
				warm = misses()
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				exchange(p, r, parts)
			}
		})
	}
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	eng.Shutdown()
	if got := misses(); got != warm {
		b.Errorf("%d pool misses after the first exchange", got-warm)
	}
}

// TestAlltoallvOwnedAllocFree: an owning exchange in steady state — parts
// from the ranks' pools, bodies in pooled envelopes, what comes back in the
// rank's own result slice and then released — allocates nothing.
func TestAlltoallvOwnedAllocFree(t *testing.T) {
	const n, size = 4, 4 << 10
	eng, w := world(t, n, nil)
	bodies := make([]func(p *sim.Proc), n)
	for i := range bodies {
		r, parts := w.Rank(i), make([][]byte, n)
		bodies[i] = func(p *sim.Proc) {
			for j := range parts {
				parts[j] = r.Scratch().Get(size)
			}
			for _, g := range r.AlltoallvOwned(p, parts) {
				r.Scratch().Put(g)
			}
		}
	}
	simtest.Measure(t, "owned alltoallv", func() {
		for i, body := range bodies {
			eng.Go(rankNames[i], body)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

var rankNames = [...]string{"rank0", "rank1", "rank2", "rank3"}

// TestAllgatherAllocFree is two-phase I/O's extent exchange: the root sends
// every rank every part, n(n-1) bodies, and gets n-1 back, yet bodies sent
// and received on one shard go back to the pool they came from, so a
// steady-state Allgather allocates nothing.
func TestAllgatherAllocFree(t *testing.T) {
	const n = 4
	eng, w := world(t, n, nil)
	bodies := make([]func(p *sim.Proc), n)
	for i := range bodies {
		r, extent := w.Rank(i), make([]byte, 16)
		bodies[i] = func(p *sim.Proc) {
			for j, part := range r.Allgather(p, extent) {
				if j != r.ID() {
					r.Scratch().Put(part)
				}
			}
		}
	}
	simtest.Measure(t, "allgather", func() {
		for i, body := range bodies {
			eng.Go(rankNames[i], body)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
