package pvfsib_test

import (
	"bytes"
	"testing"

	"pvfsib"
	"pvfsib/internal/mem"
)

func TestFacadeQuickstart(t *testing.T) {
	c := pvfsib.NewCluster(pvfsib.Options{Servers: 4, ComputeNodes: 4})
	err := c.RunMPI(func(ctx *pvfsib.Ctx) {
		f := pvfsib.OpenFile(ctx, "hello")
		rank := ctx.Rank.ID()
		// Each rank writes 64 kB at its own offset with list I/O + ADS.
		const n = 64 << 10
		addr := ctx.Malloc(n)
		want := bytes.Repeat([]byte{byte(rank + 1)}, n)
		if err := ctx.WriteMem(addr, want); err != nil {
			t.Error(err)
			return
		}
		segs := []pvfsib.SGE{{Addr: addr, Len: n}}
		regions := []pvfsib.OffLen{{Off: int64(rank) * n, Len: n}}
		if err := f.Write(ctx.Proc, pvfsib.ListIOADS, segs, regions); err != nil {
			t.Error(err)
			return
		}
		ctx.Rank.Barrier(ctx.Proc)
		// Read a neighbour's region back.
		peer := (rank + 1) % ctx.Rank.Size()
		dst := ctx.Malloc(n)
		if err := f.Read(ctx.Proc, pvfsib.ListIO,
			[]pvfsib.SGE{{Addr: dst, Len: n}},
			[]pvfsib.OffLen{{Off: int64(peer) * n, Len: n}}); err != nil {
			t.Error(err)
			return
		}
		got, err := ctx.ReadMem(dst, n)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(peer + 1)}, n)) {
			t.Errorf("rank %d read wrong bytes from rank %d's region", rank, peer)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() <= 0 {
		t.Error("virtual time did not advance")
	}
	snap := c.Snapshot()
	if snap.WriteReqs == 0 || snap.ReadReqs == 0 {
		t.Errorf("snapshot did not count requests: %+v", snap)
	}
	c.Close()
	if held := mem.Store().BytesHeld; held != 0 {
		t.Errorf("Close left %d bytes of storage in the process's store", held)
	}
}

func TestFacadeViewAndDatatypes(t *testing.T) {
	c := pvfsib.NewCluster(pvfsib.Options{Servers: 2, ComputeNodes: 2})
	err := c.RunMPI(func(ctx *pvfsib.Ctx) {
		f := pvfsib.OpenFile(ctx, "viewed")
		rank := ctx.Rank.ID()
		// Interleave ranks with a vector view: rank r owns bytes
		// [r*64, r*64+64) of every 128.
		f.SetView(pvfsib.View{
			Disp:    int64(rank) * 64,
			Pattern: pvfsib.Contig(64),
			Extent:  128,
		})
		const n = 4096
		addr := ctx.Malloc(n)
		want := bytes.Repeat([]byte{byte('A' + rank)}, n)
		ctx.WriteMem(addr, want)
		if err := f.WriteView(ctx.Proc, pvfsib.ListIO, []pvfsib.SGE{{Addr: addr, Len: n}}, 0, n); err != nil {
			t.Error(err)
			return
		}
		ctx.Rank.Barrier(ctx.Proc)
		dst := ctx.Malloc(n)
		if err := f.ReadView(ctx.Proc, pvfsib.ListIOADS, []pvfsib.SGE{{Addr: dst, Len: n}}, 0, n); err != nil {
			t.Error(err)
			return
		}
		got, _ := ctx.ReadMem(dst, n)
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d view round trip mismatch", rank)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSingleProcess(t *testing.T) {
	c := pvfsib.NewCluster(pvfsib.Options{Servers: 1, ComputeNodes: 1})
	err := c.Run(func(p *pvfsib.Proc, cl *pvfsib.Client) {
		fh := cl.Open(p, "solo")
		addr := cl.Space().Malloc(1024)
		cl.Space().Write(addr, bytes.Repeat([]byte{9}, 1024))
		if err := fh.Write(p, addr, 1024, 0, pvfsib.OpOptions{}); err != nil {
			t.Error(err)
		}
		fh.Sync(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.DeviceWrites == 0 {
		t.Error("sync reached no device")
	}
}

// TestFacadeFaultPlane drives the quickstart workload under an injected
// fault plan seeded through Options.Seed, checks the recovery layer kept the
// data intact, and replays the run to confirm the facade preserves the
// byte-identical determinism of (workload, plan, seed).
func TestFacadeFaultPlane(t *testing.T) {
	run := func(seed int64) (pvfsib.Snapshot, pvfsib.FaultCounters, int64) {
		cfg := pvfsib.DefaultConfig()
		cfg.Faults = &pvfsib.FaultPlan{WRErrorRate: 0.2}
		c := pvfsib.NewCluster(pvfsib.Options{Servers: 4, ComputeNodes: 2, Config: &cfg, Seed: seed})
		defer c.Close()
		err := c.RunMPI(func(ctx *pvfsib.Ctx) {
			f := pvfsib.OpenFile(ctx, "faulty")
			const n = 64 << 10
			rank := ctx.Rank.ID()
			addr := ctx.Malloc(n)
			want := bytes.Repeat([]byte{byte(rank + 1)}, n)
			if err := ctx.WriteMem(addr, want); err != nil {
				t.Error(err)
				return
			}
			segs := []pvfsib.SGE{{Addr: addr, Len: n}}
			regions := []pvfsib.OffLen{{Off: int64(rank) * n, Len: n}}
			if err := f.Write(ctx.Proc, pvfsib.ListIOADS, segs, regions); err != nil {
				t.Error(err)
				return
			}
			dst := ctx.Malloc(n)
			if err := f.Read(ctx.Proc, pvfsib.ListIO,
				[]pvfsib.SGE{{Addr: dst, Len: n}}, regions); err != nil {
				t.Error(err)
				return
			}
			got, err := ctx.ReadMem(dst, n)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("rank %d read corrupted data under faults", rank)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Snapshot(), c.FaultCounters(), int64(c.Now())
	}
	snap, fc, now := run(7)
	if fc.WRErrors == 0 {
		t.Errorf("seeded plan injected nothing: %v", fc)
	}
	if snap.Retries == 0 {
		t.Errorf("recovery layer did no work: %+v", snap)
	}
	snap2, fc2, now2 := run(7)
	if snap != snap2 || fc != fc2 || now != now2 {
		t.Errorf("same seed diverged:\n%+v t=%d %v\nvs\n%+v t=%d %v", snap, now, fc, snap2, now2, fc2)
	}
	if _, fc3, now3 := run(8); fc3 == fc && now3 == now {
		t.Errorf("different seeds produced identical runs: %v t=%d", fc3, now3)
	}
}
