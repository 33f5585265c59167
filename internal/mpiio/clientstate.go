//go:build go1.24

package mpiio

import (
	"runtime"
	"sync"
	"weak"

	"pvfsib/internal/pvfs"
)

// clientState is what MPI-IO keeps per client rather than per File: the
// descriptor scratch of two-phase rounds and of Multiple I/O. A benchmark
// round or a checkpoint reopens its file every time, and scratch that lived
// on the File grew again with every open; kept per client it stays warm, so
// a round in steady state allocates nothing whether or not its File is new.
// Only the client's own processes touch it, all on the client's shard.
//
// The state hangs off a process-wide table keyed by a weak pointer to the
// client — pvfs.Client has no slot for an upper layer — and leaves the
// table when the client is collected, so a finished cluster is not pinned.
type clientState struct {
	tp tpScratch
	// busy is set while a call holds tp. A second process of the same
	// client that runs MPI-IO meanwhile gets scratch of its own.
	busy bool
}

var clientStates struct {
	sync.Mutex
	m map[weak.Pointer[pvfs.Client]]*clientState
}

// stateOf returns the client's MPI-IO state, making it on the client's first
// open.
func stateOf(c *pvfs.Client) *clientState {
	k := weak.Make(c)
	clientStates.Lock()
	defer clientStates.Unlock()
	if st := clientStates.m[k]; st != nil {
		return st
	}
	if clientStates.m == nil {
		clientStates.m = make(map[weak.Pointer[pvfs.Client]]*clientState)
	}
	st := new(clientState)
	clientStates.m[k] = st
	runtime.AddCleanup(c, forgetClient, k)
	return st
}

func forgetClient(k weak.Pointer[pvfs.Client]) {
	clientStates.Lock()
	delete(clientStates.m, k)
	clientStates.Unlock()
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
