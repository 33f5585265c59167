package bench

import "testing"

// TestCacheExperimentAcceptance pins the tentpole claim: on the high-reuse
// strided workload, write-behind caching must at least double uncached
// throughput while cutting wire RPCs, and the cache must actually be
// hitting (not accidentally bypassing).
func TestCacheExperimentAcceptance(t *testing.T) {
	tb := shortTable(t, "cache")
	row := tb.FindRow("r4-d2-p64")
	if row < 0 {
		t.Fatalf("high-reuse row missing from table:\n%s", tb)
	}
	un := tb.CellF(row, "uncached_mbs")
	wb := tb.CellF(row, "wb_mbs")
	if wb < 2*un {
		t.Errorf("write-behind %.1f MB/s, uncached %.1f MB/s: want >= 2x", wb, un)
	}
	if unRPC, wbRPC := tb.CellF(row, "uncached_rpc"), tb.CellF(row, "wb_rpc"); wbRPC >= unRPC {
		t.Errorf("write-behind used %v RPCs, uncached %v: want fewer", wbRPC, unRPC)
	}
	if hit := tb.CellF(row, "wb_hit_pct"); hit < 50 {
		t.Errorf("hit rate %.1f%%, want >= 50%%", hit)
	}
	if tb.CellF(row, "wb_coalesce") == 0 {
		t.Errorf("no coalesced flushes on the high-reuse row")
	}
}
