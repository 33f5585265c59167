package bench

import (
	"runtime"
	"testing"

	"pvfsib/internal/mem"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
	"pvfsib/internal/sim/simtest"
)

// payloadSlack is how far the bytes allocated per list operation may move
// when its payload quadruples. Per-request bookkeeping (region lists, sieve
// plans, wire structs) does not depend on the payload; a copy of it does,
// and one copy of the 3 MiB difference is 48 times this.
const payloadSlack = 64 << 10

// listAlloc measures the bytes allocated per 256-region list operation of
// the given payload on the paper's 4+4 cluster, one warm-up of each size and
// direction first, so pools, file blocks and page-cache slots exist.
func listAlloc(t *testing.T, mode sieve.Mode, payloads []int64) (perOp [][2]float64) {
	t.Helper()
	const regions, ops = 256, 4
	f := newFixture(pvfs.DefaultConfig(), 4, 4)
	defer f.close()
	cl := f.c.Clients[0]
	bufs := make([]buffer, len(payloads))
	for i, payload := range payloads {
		bufs[i] = materialize(cl, interleaved(regions, payload/regions)(0, 2), byte(i))
	}
	run := func(b buffer, write bool, n int) float64 {
		var before, after runtime.MemStats
		f.c.Eng.GoOn(cl.Node().Group(), "app", func(p *sim.Proc) {
			fh := cl.Open(p, "pin")
			opts := pvfs.OpOptions{Sieve: mode}
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				if write {
					sim.Must(fh.WriteList(p, b.Segs, b.Accs, opts))
				} else {
					sim.Must(fh.ReadList(p, b.Segs, b.Accs, opts))
				}
			}
			runtime.ReadMemStats(&after)
		})
		if err := f.c.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	for _, b := range bufs {
		run(b, true, 1)
		run(b, false, 1)
	}
	for _, b := range bufs {
		perOp = append(perOp, [2]float64{run(b, true, ops), run(b, false, ops)})
	}
	return perOp
}

// TestListIOAllocIndependentOfPayload pins the I/O daemon's payload
// ownership rule from outside: a list write or read allocates the same
// whether it moves 1 MiB or 4 MiB, in every sieving mode, because payload
// bytes only ever move into storage that already exists.
func TestListIOAllocIndependentOfPayload(t *testing.T) {
	for _, mode := range []sieve.Mode{sieve.Auto, sieve.Always, sieve.Never} {
		perOp := listAlloc(t, mode, []int64{1 << 20, 4 << 20})
		for dir, name := range []string{"write", "read"} {
			small, large := perOp[0][dir], perOp[1][dir]
			t.Logf("mode %d list %s: %.0f B/op at 1 MiB, %.0f B/op at 4 MiB", mode, name, small, large)
			if d := large - small; d > payloadSlack || d < -payloadSlack {
				t.Errorf("mode %d list %s: %.0f B/op at 1 MiB but %.0f B/op at 4 MiB: allocation follows the payload",
					mode, name, small, large)
			}
		}
	}
}

// TestAddrSpaceAllocFree pins the storage under every payload copy: an
// access to simulated memory — inside one mapping or across two — allocates
// nothing, and neither does a Malloc and Free pair once storage of that size
// has been freed before (it is recycled; only the address is new).
func TestAddrSpaceAllocFree(t *testing.T) {
	s := mem.NewAddrSpace("pin")
	a := s.Malloc(64 << 10)
	b := s.Malloc(64 << 10) // adjacent: a+60k .. +8k crosses into it
	buf := make([]byte, 8<<10)
	simtest.Measure(t, "Write", func() { sim.Must(s.Write(a+100, buf)); sim.Must(s.Write(a+60<<10, buf)) })
	simtest.Measure(t, "ReadInto", func() { sim.Must(s.ReadInto(b+100, buf)); sim.Must(s.ReadInto(a+60<<10, buf)) })
	simtest.Measure(t, "Copy", func() { sim.Must(s.Copy(b+4096, a+100, 2048)); sim.Must(s.Copy(a+61<<10, a+60<<10, 8<<10)) })
	simtest.Measure(t, "Allocated", func() {
		if !s.Allocated(mem.Extent{Addr: a + 5, Len: 100 << 10}) || s.Allocated(mem.Extent{Addr: b, Len: 65 << 10}) {
			t.Error("Allocated is wrong")
		}
	})
	simtest.Measure(t, "Malloc+Free", func() {
		e := mem.Extent{Addr: s.Malloc(4 << 20), Len: 4 << 20}
		sim.Must(s.Write(e.Addr+1<<20, buf))
		s.Free(e)
	})
}
