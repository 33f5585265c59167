package mpiio

import (
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
)

// clientState is what MPI-IO keeps per client rather than per File: the
// descriptor scratch of two-phase rounds and of Multiple I/O, and the page
// cache records of closed caches. A benchmark round or a checkpoint reopens
// its file every time, and scratch that lived on the File grew again with
// every open; kept per client it stays warm, so a round in steady state
// allocates nothing whether or not its File is new. It lives in the
// client's upper-layer slot (pvfs.Client.SetUpper), so it dies with the
// client — a table beside the client would pin it, since a cache record
// points back at its client. Only the client's own processes touch it, all
// on the client's shard.
type clientState struct {
	tp tpScratch
	// busy is set while a call holds tp. A second process of the same
	// client that runs MPI-IO meanwhile gets scratch of its own.
	busy bool
	// caches holds the records of the client's disabled page caches, which
	// the next EnableCache rebuilds (pcache.Reuse) instead of making anew.
	caches []*pcache.File
}

// stateOf returns the client's MPI-IO state, making it on the client's first
// open.
func stateOf(c *pvfs.Client) *clientState {
	if st, ok := c.Upper().(*clientState); ok {
		return st
	}
	st := new(clientState)
	c.SetUpper(st)
	return st
}

// scratch lends the client's descriptor scratch to one call, which gives it
// back with done.
func (st *clientState) scratch() *tpScratch {
	if st.busy {
		return new(tpScratch)
	}
	st.busy = true
	return &st.tp
}

func (st *clientState) done(sc *tpScratch) {
	if sc == &st.tp {
		st.busy = false
	}
}

// cache attaches a page cache to fh in the most recently disabled record,
// or in a fresh one when there is none.
func (st *clientState) cache(fh *pvfs.FileHandle, cfg pcache.Config) *pcache.File {
	n := len(st.caches) - 1
	if n < 0 {
		return pcache.New(fh, cfg)
	}
	old := st.caches[n]
	st.caches[n] = nil
	st.caches = st.caches[:n]
	return pcache.Reuse(old, fh, cfg)
}

// uncache keeps a closed cache's record for the next EnableCache.
func (st *clientState) uncache(c *pcache.File) { st.caches = append(st.caches, c) }
