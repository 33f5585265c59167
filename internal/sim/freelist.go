package sim

// FreeList is a LIFO of recycled *T: the one free-list discipline of the
// simulator, behind its events, carriers and timeouts, the fabric's messages,
// the adapters' wire records, read mailboxes and region records, and the file system's
// protocol records and operation plans. Each list belongs to one engine shard (or to
// one object that lives on one), so it needs no lock; an object may come back
// to a different shard's list than the one it left, and the counts of every
// list together say how many are out. The zero value is an empty list, and
// a miss returns a zero *T.
//
// Take and Put are plain slice operations that call no method of T, so the
// compiler's shared instantiation never goes through a dictionary on this
// path. What a type needs done on release — a double-put check, clearing,
// poisoning — its owner does before Put.
type FreeList[T any] struct {
	free []*T
	made int64 // misses: objects this list allocated
}

// Take returns the most recently recycled *T, or a new zero one. The
// vacated slot is not cleared: it is overwritten by the next Put, and
// clearing it would cost the hot path a write-barrier check per take.
func (l *FreeList[T]) Take() *T {
	if n := len(l.free) - 1; n >= 0 {
		x := l.free[n]
		l.free = l.free[:n]
		return x
	}
	l.made++
	return new(T)
}

// Put recycles x, which the caller must not touch afterwards.
func (l *FreeList[T]) Put(x *T) {
	l.free = append(l.free, x)
}

// Out is how many objects were taken from the list and not recycled into
// it — what it made less what it holds, which is its takes less its puts.
// Summed over every list of one kind it is how many are out of all of them:
// zero when everything came back, negative after a double put.
func (l *FreeList[T]) Out() int64 { return l.made - int64(len(l.free)) }

// PoisonReleased makes the owners of pooled objects overwrite what they
// release — process, protocol and wire records, operation plans and staging
// bytes — with values no live object could hold, so that a use after
// release fails loudly instead of passing on stale but plausible values.
// Tests switch it on; nothing else writes it.
var PoisonReleased bool
