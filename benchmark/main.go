// Command benchmark is the repository's two-clock performance ledger: seven
// named closed-loop workloads on the simulated 4+4 cluster, every byte
// checked against flat reference images, reporting virt_* metrics on the
// modelled cluster's clock (deterministic at a fixed seed) and host_*
// metrics on the Go program's clock (medians of repetitions). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process and print its result as the last line; empty runs every workload in child processes and writes a ledger")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs: byte fill, round order, buffer reuse, fault plans")
		seconds = flag.Float64("seconds", 10, "host seconds one run measures for")
		trace   = flag.Int("trace", 0, "1 runs the traced passes and the layer kernels and prints the per-layer metrics")
		outDir  = flag.String("out", "benchmark/out", "directory for host-span traces and ledgers, relative to the current directory; run.sh passes its own")
		compare = flag.Bool("compare", false, "compare two ledgers: -compare old.json new.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *outDir, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, outDir string, compare bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two ledger files")
		}
		return compareLedgers(os.Stdout, args[0], args[1])
	case len(args) != 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case name == "":
		return runLedger(seed, seconds, traced, outDir)
	}
	wl := findWorkload(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var r *result
	if traced {
		var err error
		if r, err = runTraced(wl, seed, seconds, outDir); err != nil {
			return err
		}
	} else {
		r = runEndToEnd(wl, seed, seconds)
	}
	return printResult(wl, seed, r)
}

// printResult prints every metric by name with its unit, then the one-line
// JSON result the driver reads.
func printResult(wl *workload, seed int64, r *result) error {
	fmt.Printf("workload %s seed %d: %d cycles of %d timed operations, %d B of payload in the virt window\n",
		wl.name, seed, r.cycles, r.ops, r.payload)
	for _, n := range sortedKeys(r.Metrics) {
		fmt.Printf("  %-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("  %-40s %16.6g %s\n", "ops_failed_share", float64(r.Failed)/float64(r.Attempted), "ratio")
	fmt.Printf("  %-40s %16d %s\n", "verify_mismatch_bytes", r.mismatch, "B")
	for _, p := range r.problems {
		fmt.Println("  problem:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
