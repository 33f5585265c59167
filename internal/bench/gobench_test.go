package bench

import (
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/simnet"
)

// BenchmarkFig3Cell measures one full Figure 3 cell — engine, network,
// HCAs, and all six transfer schemes for a 512x512 array — end to end.
// This is the unit of work the parallel scheduler distributes, so its
// ns/op and allocs/op are the numbers the engine and pooling work targets.
func BenchmarkFig3Cell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig3RowOn(512, ib.DefaultParams(), simnet.DefaultParams())
	}
}
