package ib

import (
	"fmt"

	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
)

// Buffer is one pre-registered staging buffer from a BufPool. A buffer is
// backed only while it is lent: its taker backs it with storage of at most
// Size bytes, as many as its request names (mem.AddrSpace.Exchange), and may
// take the storage out again; Put hands whatever it still holds to the
// pool's store.
type Buffer struct {
	Addr mem.Addr
	Size int64
	MR   *MR
	pool *BufPool
}

// SGE returns a gather entry for the first n bytes of the buffer.
func (b *Buffer) SGE(n int64) (SGE, error) {
	if n > b.Size {
		return SGE{}, fmt.Errorf("ib: SGE of %d bytes exceeds %d-byte buffer", n, b.Size)
	}
	return SGE{Addr: b.Addr, Len: n}, nil
}

// BufPool is a set of equally-sized, permanently registered buffers, such as
// the Fast RDMA buffers of the paper's PVFS-over-InfiniBand transport and
// the I/O servers' staging buffers. Registration happens once at setup, so
// per-operation transfers through the pool pay no registration cost — the
// defining property of the Pack/Unpack ("pack, no reg") scheme.
type BufPool struct {
	hca   *HCA
	count int
	free  []*Buffer
	cond  *sim.Cond
	store *mem.ScratchPool
}

// NewBufPool allocates and statically registers count buffers of size bytes
// (a whole number of pages) each in the HCA's host memory, and unbacks them
// before any storage is made: a free buffer is unbacked, and store only ever
// holds what lent buffers handed back. Pools are built once at system setup,
// so registration is free in virtual time.
func NewBufPool(h *HCA, count int, size int64, store *mem.ScratchPool) (*BufPool, error) {
	pool := &BufPool{hca: h, count: count, cond: h.engine().NewCond(), store: store}
	for i := 0; i < count; i++ {
		addr := h.space.Malloc(size)
		mr, err := h.RegisterStatic(mem.Extent{Addr: addr, Len: size})
		if err != nil {
			return nil, fmt.Errorf("ib: buffer pool registration: %w", err)
		}
		h.space.Exchange(addr, nil)
		pool.free = append(pool.free, &Buffer{Addr: addr, Size: size, MR: mr, pool: pool})
	}
	return pool, nil
}

// Census reports the pool's buffers that are not home.
func (pool *BufPool) Census(add func(pool string, out int64)) {
	add("ib.staging", int64(pool.count-len(pool.free)))
}

// Get returns a free buffer, blocking until one is available. It advances
// the buffer's generation, so every key lent before (Key) is fenced off.
func (pool *BufPool) Get(p *sim.Proc) *Buffer {
	for len(pool.free) == 0 {
		pool.cond.Wait(p)
	}
	b := pool.free[len(pool.free)-1]
	pool.free = pool.free[:len(pool.free)-1]
	b.MR.gen++
	return b
}

// Key returns the key a peer is lent for this lend of the buffer: its
// region's key with the current generation.
func (b *Buffer) Key() Key { return b.MR.Key | Key(b.MR.gen)<<genShift }

// Put unbacks a buffer, handing its storage to the pool's store, returns it
// to the pool and wakes one waiter. Storage a buffer held goes back at length
// 0, so sim.PoisonReleased leaves it as it is: the mapping was its one holder,
// and every access through an unbacked mapping fails.
func (b *Buffer) Put() {
	b.pool.store.Put(b.pool.hca.space.Exchange(b.Addr, nil)[:0])
	b.pool.free = append(b.pool.free, b)
	b.pool.cond.Signal()
}
