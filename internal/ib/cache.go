package ib

import (
	"errors"
	"fmt"
	"slices"

	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
)

// RegCache is a pin-down cache (Tezuka et al.): deregistration is deferred
// so that a later transfer reusing the same buffer finds it already pinned.
// Lookups succeed when a cached region fully covers the requested extent.
//
// Entries carry a reference count; unreferenced entries stay cached until
// capacity pressure evicts them (least recently released first), at which
// point they are actually deregistered and the deregistration cost is
// charged to the process that caused the eviction.
type RegCache struct {
	hca        *HCA
	maxBytes   int64
	maxEntries int

	// all holds every entry, by value, in registration order: a
	// registration costs the cache no record of its own, and an eviction's
	// slot is reused by the next. Get scans it in order, so which covering
	// region a hit returns — and with it the hit/miss counters and eviction
	// pattern — is identical on every run; Put finds its entry there too.
	all   []cacheEntry
	bytes int64
	// releases counts Puts that left an entry unreferenced; each such entry
	// keeps the count as its stamp, so the least recently released one —
	// the LRU victim — is the unreferenced entry with the smallest stamp.
	releases int64
}

type cacheEntry struct {
	mr       *MR
	refs     int
	released int64 // the cache's release count when refs last fell to 0
}

// NewRegCache creates a pin-down cache over the HCA's registrations.
// maxBytes bounds the total pinned bytes held by the cache; maxEntries
// bounds the number of cached regions.
func NewRegCache(h *HCA, maxBytes int64, maxEntries int) *RegCache {
	return &RegCache{hca: h, maxBytes: maxBytes, maxEntries: maxEntries}
}

// Get returns a registered region covering e, registering it if no cached
// region covers it. The returned MR is referenced and must be released with
// Put. A cache hit costs no virtual time.
func (c *RegCache) Get(p *sim.Proc, e mem.Extent) (*MR, error) {
	for i := range c.all {
		ent := &c.all[i]
		if ent.mr.Covers(e) {
			c.hca.mx.regHits.Add(p.Now(), 1)
			ent.refs++
			return ent.mr, nil
		}
	}
	c.hca.mx.regMiss.Add(p.Now(), 1)
	// Evict until the new region fits.
	need := e.Pages() * mem.PageSize
	for c.bytes+need > c.maxBytes || len(c.all) >= c.maxEntries {
		evicted, err := c.evictOne(p)
		if err != nil {
			return nil, err
		}
		if !evicted {
			break // nothing evictable; let Register enforce HCA limits
		}
	}
	mr, err := c.hca.Register(p, e)
	if err != nil {
		return nil, err
	}
	c.all = append(c.all, cacheEntry{mr: mr, refs: 1})
	c.bytes += need
	return mr, nil
}

// Put releases a reference obtained from Get. The region remains registered
// and cached for future hits — unless the cache is over capacity (Get never
// evicts referenced entries, so a burst of simultaneously-pinned buffers can
// overshoot), in which case the least recently released unreferenced entries
// are deregistered now, their cost charged to p. This is what produces
// registration thrashing when the pinnable budget is smaller than an
// operation's working set (Section 4.2).
func (c *RegCache) Put(p *sim.Proc, mr *MR) error {
	var ent *cacheEntry
	for i := range c.all {
		if c.all[i].mr == mr {
			ent = &c.all[i]
			break
		}
	}
	if ent == nil {
		return fmt.Errorf("ib: RegCache.Put of unknown MR (key %d): %w", mr.Key, ErrInvalidMR)
	}
	if ent.refs <= 0 {
		return errors.New("ib: RegCache.Put without matching Get")
	}
	ent.refs--
	if ent.refs == 0 {
		c.releases++
		ent.released = c.releases
	}
	for c.bytes > c.maxBytes || len(c.all) > c.maxEntries {
		evicted, err := c.evictOne(p)
		if err != nil {
			return err
		}
		if !evicted {
			break
		}
	}
	return nil
}

// evictOne deregisters the least-recently-released unreferenced entry; its
// MR goes back to the HCA (Deregister).
func (c *RegCache) evictOne(p *sim.Proc) (bool, error) {
	victim := -1
	for i := range c.all {
		if ent := &c.all[i]; ent.refs == 0 && (victim < 0 || ent.released < c.all[victim].released) {
			victim = i
		}
	}
	if victim < 0 {
		return false, nil
	}
	mr := c.all[victim].mr
	c.all = slices.Delete(c.all, victim, victim+1)
	c.bytes -= mr.Extent.Pages() * mem.PageSize
	if err := c.hca.Deregister(p, mr); err != nil {
		return false, fmt.Errorf("ib: RegCache eviction: %w", err)
	}
	return true, nil
}

// Flush deregisters every unreferenced cached entry.
func (c *RegCache) Flush(p *sim.Proc) error {
	for {
		evicted, err := c.evictOne(p)
		if err != nil {
			return err
		}
		if !evicted {
			return nil
		}
	}
}

// Census reports the references the cache holds: every Get not yet
// matched by its Put.
func (c *RegCache) Census(add func(pool string, out int64)) {
	refs := 0
	for i := range c.all {
		refs += c.all[i].refs
	}
	add("ib.regcache-refs", int64(refs))
}

// Len reports the number of cached regions (referenced or not).
func (c *RegCache) Len() int { return len(c.all) }

// Bytes reports the total pinned bytes held by the cache.
func (c *RegCache) Bytes() int64 { return c.bytes }
