package mem

import (
	"bytes"
	"sync"

	"pvfsib/internal/sim"
)

// The store is the second tier of the mapping and extent free lists: the
// process-wide keeper of what retired address spaces and file systems held
// (DESIGN.md §8.4). A list asks it only when it misses itself, and only
// retirement fills it, so a cycle on a live cluster never reaches it while
// the cluster after a retired one backs its first touches and its new
// extents with what the retired one paid for. What a borrow hands out is
// indistinguishable from the make it replaces: it reads as zeros over all
// of it, and its taker counts it as fresh.
//
// Storage is kept by exact size, so a mapping and a file extent of the same
// size trade it. One mutex guards the store, taken only on a miss of the
// list in front, at retirement and by DropStore.

// storeMaxBytes bounds what the store holds in all. Of the benchmark's
// clusters, the one whose successors borrow — blockcol-read's four iods and
// four clients after their cycles — hands in 229 MiB, and the bound keeps
// it whole. A piece that would pass the bound is left to the collector.
const storeMaxBytes = 320 << 20

// stored is one piece of storage in the store; poisoned says that it was
// overwritten with poison on entry (sim.PoisonReleased) rather than left as
// it entered.
type stored struct {
	b        []byte
	poisoned bool
}

// storage is a store of at most max bytes.
type storage struct {
	mu     sync.Mutex
	max    int64
	pieces map[int][]stored // by length
	stats  StoreStats
}

// store is the process's one store.
var store = storage{max: storeMaxBytes}

// StoreStats is the store's traffic since the process started. It is
// process-wide — which cells ran before which on which worker decides it — so
// it describes the host and belongs in no committed artifact.
type StoreStats struct {
	Borrows     int64 `json:"borrows"`      // storage requests the store served
	BytesServed int64 `json:"bytes_served"` // what those requests took
	BytesHeld   int64 `json:"bytes_held"`   // what the store holds now
}

// Store returns the store's traffic so far and what it holds.
func Store() StoreStats {
	store.mu.Lock()
	defer store.mu.Unlock()
	return store.stats
}

// DropStore leaves everything the store holds to the collector, for a
// process that builds no more clusters (pvfsib's Cluster.Close).
func DropStore() {
	store.mu.Lock()
	defer store.mu.Unlock()
	store.pieces = nil
	store.stats.BytesHeld = 0
}

// Borrow returns n bytes of zeroed storage that a retired owner handed in,
// or nil when the store holds none of exactly that size. The taker counts it
// as the make it replaces.
func Borrow(n int) []byte {
	s, ok := store.take(n)
	if !ok {
		return nil
	}
	if s.poisoned {
		checkPoison(s.b)
		clear(s.b)
	}
	return s.b
}

// Keep hands b, which must read as zeros outside its bytes [lo, hi), to the
// store for a later Borrow of its length; the store clears those bytes if it
// takes b, and leaves b to the collector uncleared if b would pass the
// bound. Its owner must be done with it: the store owns it now. Under
// sim.PoisonReleased it is poisoned instead, and Borrow checks that the
// poison is still intact, so a write through a dead owner's reference shows.
func Keep(b []byte, lo, hi int) { store.put(b, lo, hi) }

// take removes and returns the last piece of n bytes kept.
func (st *storage) take(n int) (stored, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	l := st.pieces[n]
	if len(l) == 0 {
		return stored{}, false
	}
	s := l[len(l)-1]
	l[len(l)-1] = stored{}
	st.pieces[n] = l[:len(l)-1]
	st.stats.Borrows++
	st.stats.BytesServed += int64(n)
	st.stats.BytesHeld -= int64(n)
	return s, true
}

// put keeps b once it has cleared b[lo:hi), or poisoned b, unless that
// would pass the bound: then b is dropped, and nothing of it is cleared.
// The clear runs outside the lock; if a concurrent put took the room
// meanwhile, b is dropped after all.
func (st *storage) put(b []byte, lo, hi int) {
	n := len(b)
	if !st.room(n) {
		return
	}
	s := stored{b: b, poisoned: sim.PoisonReleased}
	if s.poisoned {
		poison(b)
	} else if lo < hi {
		clear(b[lo:hi])
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stats.BytesHeld+int64(n) > st.max {
		return
	}
	if st.pieces == nil {
		st.pieces = make(map[int][]stored)
	}
	st.pieces[n] = append(st.pieces[n], s)
	st.stats.BytesHeld += int64(n)
}

// room reports whether n more bytes fit under the bound.
func (st *storage) room(n int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats.BytesHeld+int64(n) <= st.max
}

// poisonBlock is what a poisoned stretch of storage reads, block by block.
var poisonBlock = func() []byte {
	b := make([]byte, PageSize)
	poison(b)
	return b
}()

// checkPoison fails unless b still holds nothing but poison.
func checkPoison(b []byte) {
	for off := 0; off < len(b); off += PageSize {
		chunk := b[off:min(off+PageSize, len(b))]
		if !bytes.Equal(chunk, poisonBlock[:len(chunk)]) {
			sim.Failf("mem: %d bytes of storage were written after their owner retired (first change within bytes %d..%d)", len(b), off, off+len(chunk))
		}
	}
}
