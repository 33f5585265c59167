package bench

import (
	"runtime"
	"testing"
)

// TestBreakdownDeterministicAcrossGOMAXPROCS: experiment output must be
// byte-identical however the Go scheduler slices the run. The breakdown
// experiment (span tracing, the most stage-accounting-sensitive table) runs
// on an 8-worker cell pool twice — once on a single P, where goroutines
// serialize, and once on every available P, where cells genuinely race —
// and the JSON must not differ by a byte.
func TestBreakdownDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the breakdown experiment twice")
	}
	exp, err := Lookup("breakdown")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Short: true, Seed: 1, Parallel: 8}

	prev := runtime.GOMAXPROCS(1)
	serial := exp.Run(opts).JSON()
	runtime.GOMAXPROCS(prev)
	parallel := exp.Run(opts).JSON()

	if serial != parallel {
		t.Fatalf("breakdown JSON differs between GOMAXPROCS=1 and GOMAXPROCS=%d:\n--- serial ---\n%s\n--- parallel ---\n%s",
			prev, serial, parallel)
	}
}
