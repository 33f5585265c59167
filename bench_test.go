// Benchmarks regenerating every table and figure of the paper's evaluation
// section (plus the ablations) on the simulated cluster. Each benchmark
// runs one full experiment per iteration and prints the resulting table
// once; `go test -bench=. -benchmem` therefore reproduces the whole paper.
//
// The benchmarks honour -short (reduced sweeps). Virtual-time results are
// identical across runs — the simulation is deterministic — so b.N=1 tells
// the whole story; the reported ns/op is *host* time to simulate the
// experiment, not the experiment's virtual duration.
package pvfsib_test

import (
	"fmt"
	"sync"
	"testing"

	"pvfsib/internal/bench"
)

var printOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tbl := e.Run(bench.RunOpts{Short: testing.Short(), Seed: 1})
		if _, printed := printOnce.LoadOrStore(id, true); !printed {
			fmt.Println(tbl)
		}
	}
}

func BenchmarkTable2Network(b *testing.B)           { runExperiment(b, "table2") }
func BenchmarkTable3Filesystem(b *testing.B)        { runExperiment(b, "table3") }
func BenchmarkFig3TransferSchemes(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkFig4ListIOTransfer(b *testing.B)      { runExperiment(b, "fig4") }
func BenchmarkTable4OGR(b *testing.B)               { runExperiment(b, "table4") }
func BenchmarkFig6BlockColumnWrite(b *testing.B)    { runExperiment(b, "fig6") }
func BenchmarkFig7BlockColumnRead(b *testing.B)     { runExperiment(b, "fig7") }
func BenchmarkFig8TiledNoDisk(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkFig9TiledDisk(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkTable5BTIO(b *testing.B)              { runExperiment(b, "table5") }
func BenchmarkAblationSGELimit(b *testing.B)        { runExperiment(b, "ablation-sge") }
func BenchmarkAblationHybridThreshold(b *testing.B) { runExperiment(b, "ablation-hybrid") }
func BenchmarkAblationADSModel(b *testing.B)        { runExperiment(b, "ablation-adsmodel") }
func BenchmarkAblationOGRGrouping(b *testing.B)     { runExperiment(b, "ablation-ogrgroup") }
func BenchmarkAblationNetwork(b *testing.B)         { runExperiment(b, "ablation-network") }
func BenchmarkAblationRegThrash(b *testing.B)       { runExperiment(b, "ablation-regthrash") }
func BenchmarkExtraNoncontig(b *testing.B)          { runExperiment(b, "extra-noncontig") }
func BenchmarkExtraDiskSpeed(b *testing.B)          { runExperiment(b, "extra-diskspeed") }
func BenchmarkExtraScaling(b *testing.B)            { runExperiment(b, "extra-scaling") }
func BenchmarkExtraAppAware(b *testing.B)           { runExperiment(b, "extra-appaware") }
func BenchmarkExtraQueryMethod(b *testing.B)        { runExperiment(b, "extra-querymethod") }
func BenchmarkFaults(b *testing.B)                  { runExperiment(b, "faults") }
