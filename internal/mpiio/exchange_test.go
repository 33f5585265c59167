package mpiio

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpi"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
)

// shardedFixture is fixture on an engine of the given shard count, with
// spawn running every rank on its own node's group as a sharded run needs.
func shardedFixture(t *testing.T, shards, nServers, nRanks int) (*pvfs.Cluster, *mpi.World, func(fn func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client))) {
	t.Helper()
	cfg := pvfs.DefaultConfig()
	cfg.Shards = shards
	c := pvfs.NewCluster(sim.NewEngine(), cfg, nServers, nRanks)
	w := NewWorld(c)
	return c, w, func(fn func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client)) {
		t.Helper()
		for i := 0; i < w.Size(); i++ {
			r, cl := w.Rank(i), c.Clients[i]
			c.Eng.GoOn(cl.Node().Group(), fmt.Sprintf("rank%d", i), func(p *sim.Proc) { fn(p, r, cl) })
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// stridedShare is rank r's share of a sparse interleaved layout: count
// pieces of piece bytes, piece j at (j*ranks + r) * stride, so that every
// domain holds pieces of every rank with holes between them.
func stridedShare(r, ranks int, count, piece, stride int64) []pvfs.OffLen {
	accs := make([]pvfs.OffLen, count)
	for j := range accs {
		accs[j] = pvfs.OffLen{Off: (int64(j)*int64(ranks) + int64(r)) * stride, Len: piece}
	}
	return accs
}

// TestCollectiveRoundTripsByteExact writes a sparse interleaved layout twice
// over a pre-filled file through two-phase I/O in many small rounds, then
// reads it back collectively and contiguously: the bytes between the pieces
// must survive (the read-modify-write arm), a rank with nothing to move must
// not disturb the others, and a two-shard engine must agree — under -race
// that is also the check that an exchange buffer has one owner at a time.
func TestCollectiveRoundTripsByteExact(t *testing.T) {
	const (
		ranks  = 4
		count  = 48
		piece  = 300
		stride = 1000
		size   = count * ranks * stride
	)
	for _, tc := range []struct {
		name   string
		shards int
		idle   int // the rank that moves nothing, or -1
	}{
		{"holes", 1, -1},
		{"empty rank", 1, 2},
		{"holes, two shards", 2, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, spawn := shardedFixture(t, tc.shards, 4, ranks)
			model := bytes.Repeat([]byte{0xEE}, size)
			data := make([][]byte, ranks) // what each rank wrote last
			for pass := 0; pass < 2; pass++ {
				for r := range data {
					if r == tc.idle {
						continue
					}
					data[r] = make([]byte, count*piece)
					for i := range data[r] {
						data[r][i] = byte(r*61 + pass*17 + i)
					}
					for j, a := range stridedShare(r, ranks, count, piece, stride) {
						copy(model[a.Off:], data[r][j*piece:(j+1)*piece])
					}
				}
			}
			var image []byte
			spawn(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
				id := rank.ID()
				f := Open(p, cl, rank, "sparse")
				f.SetCollectiveBuffer(8 << 10) // 192 kB of extent: six rounds
				if id == 0 {
					src := cl.Space().Malloc(size)
					sim.Must(cl.Space().Write(src, bytes.Repeat([]byte{0xEE}, size)))
					sim.Must(f.fh.Write(p, src, size, 0, pvfs.OpOptions{}))
				}
				rank.Barrier(p)
				var segs []ib.SGE
				var accs []pvfs.OffLen
				if id != tc.idle {
					accs = stridedShare(id, ranks, count, piece, stride)
					segs = []ib.SGE{{Addr: cl.Space().Malloc(count * piece), Len: count * piece}}
				}
				for pass := 0; pass < 2; pass++ {
					if id != tc.idle {
						last := make([]byte, count*piece)
						for i := range last {
							last[i] = byte(id*61 + pass*17 + i)
						}
						sim.Must(cl.Space().Write(segs[0].Addr, last))
					}
					if err := f.Write(p, Collective, segs, accs); err != nil {
						t.Errorf("rank %d write: %v", id, err)
						return
					}
				}
				var dst []ib.SGE
				if id != tc.idle {
					dst = []ib.SGE{{Addr: cl.Space().Malloc(count * piece), Len: count * piece}}
				}
				if err := f.Read(p, Collective, dst, accs); err != nil {
					t.Errorf("rank %d read: %v", id, err)
					return
				}
				if id != tc.idle {
					got, err := cl.Space().Read(dst[0].Addr, count*piece)
					sim.Must(err)
					if !bytes.Equal(got, data[id]) {
						t.Errorf("rank %d: collective read differs from what it wrote", id)
					}
				}
				if id == 0 {
					whole := cl.Space().Malloc(size)
					sim.Must(f.fh.Read(p, whole, size, 0, pvfs.OpOptions{}))
					image, _ = cl.Space().Read(whole, size)
				}
			})
			if !bytes.Equal(image, model) {
				for i := range model {
					if image[i] != model[i] {
						t.Fatalf("file byte %d = %#x, want %#x", i, image[i], model[i])
					}
				}
			}
		})
	}
}

// drain empties the pool's classes up to 1 MiB and returns what they held.
func drain(pool *mem.ScratchPool) [][]byte {
	var out [][]byte
	for size := 64; size <= 1<<20; size <<= 1 {
		for {
			hits := pool.Hits
			b := pool.Get(size)
			if pool.Hits == hits {
				break
			}
			out = append(out, b)
		}
	}
	return out
}

// TestExchangeBuffersChangeOwner runs Open, collective write, collective
// read twice on one set of ranks. The second sequence must find every buffer
// it needs in the pools — they outlive the File, what a rank receives it
// releases, and on one engine shard every body goes back to the pool it came
// from, the extents' Allgather's included — and afterwards no buffer may sit
// in two pools, or twice in one: a sender that also released what it handed
// over would put it there.
func TestExchangeBuffersChangeOwner(t *testing.T) {
	const ranks, n = 4, 512
	c, w := fixture(t, 4, ranks)
	sequence := func(name string) {
		spawnRanks(t, c, w, func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
			f := Open(p, cl, rank, name)
			segs, accs, data := blockColumn(cl, rank.ID(), ranks, n)
			sim.Must(f.Write(p, Collective, segs, accs))
			dst := []ib.SGE{{Addr: cl.Space().Malloc(int64(len(data))), Len: int64(len(data))}}
			sim.Must(f.Read(p, Collective, dst, accs))
			got, err := cl.Space().Read(dst[0].Addr, dst[0].Len)
			sim.Must(err)
			if !bytes.Equal(got, data) {
				t.Errorf("%s: rank %d read back other bytes than it wrote", name, rank.ID())
			}
		})
	}
	// Ranks on one shard share its pool.
	var pools []*mem.ScratchPool
	for r := 0; r < ranks; r++ {
		if pool := w.Rank(r).Scratch(); !slices.Contains(pools, pool) {
			pools = append(pools, pool)
		}
	}
	sequence("first")
	misses := func() (n int64) {
		for _, pool := range pools {
			n += pool.Gets - pool.Hits
		}
		return n
	}
	before := misses()
	sequence("second")
	if n := misses() - before; n != 0 {
		t.Errorf("%d pool misses in the second sequence, want 0", n)
	}
	seen := map[*byte]int{}
	for i, pool := range pools {
		for _, b := range drain(pool) {
			base := &b[:1][0]
			if other, dup := seen[base]; dup {
				t.Fatalf("a %d-byte buffer is pooled twice, by pools %d and %d", cap(b), other, i)
			}
			seen[base] = i
		}
	}
	if len(seen) == 0 {
		t.Error("the pools are empty after two exchanges")
	}
}
