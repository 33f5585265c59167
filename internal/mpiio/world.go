package mpiio

import (
	"pvfsib/internal/ib"
	"pvfsib/internal/mpi"
	"pvfsib/internal/pvfs"
)

// NewWorld builds the MPI world of a PVFS cluster: rank i runs on compute
// node i's HCA, and every byte the ranks exchange is charged to the sending
// client's accounting (the client-to-client column of Table 6).
func NewWorld(c *pvfs.Cluster) *mpi.World {
	hcas := make([]*ib.HCA, len(c.Clients))
	for i, cl := range c.Clients {
		hcas[i] = cl.HCA()
	}
	return mpi.NewWorld(c.Eng, hcas, func(rank int, n int64) { c.Clients[rank].Acct().BytesClientClient += n })
}
