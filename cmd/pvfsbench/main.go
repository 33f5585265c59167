// Command pvfsbench regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	pvfsbench -list                 list the available experiments
//	pvfsbench -run fig6             run one experiment
//	pvfsbench -run faults,fig4      run several (comma-separated ids)
//	pvfsbench -run all              run everything (paper order, then ablations)
//	pvfsbench -run hostcost         run everything and print what each experiment cost
//	                                the host in exact counts instead of its table
//	                                (BENCH_hostcost.json; not part of 'all')
//	pvfsbench -run paper            run the experiments the paper reports numbers for
//	                                and set its values beside ours (BENCH_paper.json;
//	                                not part of 'all')
//	pvfsbench -short -run all       smaller sweeps for a quick look
//	pvfsbench -seed 7 -run faults   reseed the fault plane (same seed, same table)
//	pvfsbench -parallel 4           run independent cells on 4 workers
//	pvfsbench -shards 4             partition each cell's engine into 4 parallel
//	                                shards (same output, less wall clock)
//	pvfsbench -format json ...      machine-readable output (one JSON object per table)
//	pvfsbench -hostmeta ...         append a host-side JSON record: wall clock and
//	                                bytes allocated in all and per experiment, mallocs,
//	                                engine events, process switches, inline wakes,
//	                                requests and payload bytes, bytes copied and
//	                                cleared, storage allocated fresh and recycled
//	pvfsbench -trace out.json       run a traced workload, write a Perfetto trace
//	                                (plus out.json.breakdown.json) and print the
//	                                critical-path breakdown
//	pvfsbench -cpuprofile cpu.pb    write a CPU profile of the run
//	pvfsbench -memprofile mem.pb    write a heap profile at exit
//
// Each experiment prints a plain-text table; -run paper sets the paper's
// numbers and shape claims beside ours. The tables are functions
// of (-short, -seed) only: every cell runs on its own deterministic
// simulated cluster, so -parallel changes wall-clock time, never output.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pvfsib/internal/bench"
)

// hostMeta is the -hostmeta record: host-side measurements that are
// deliberately kept out of the tables themselves (tables stay functions of
// the inputs; wall clock and allocation counts are not).
type hostMeta struct {
	Parallel       int                `json:"parallel"`
	GoMaxProcs     int                `json:"gomaxprocs"`
	WallSeconds    float64            `json:"wall_s"`
	Mallocs        uint64             `json:"mallocs"`
	TotalAlloc     uint64             `json:"total_alloc_bytes"`
	bench.HostWork                    // the exact counts: engine work, bytes copied and cleared, storage reuse
	Experiments    map[string]float64 `json:"experiment_wall_s"`
	ExpAlloc       map[string]uint64  `json:"experiment_alloc_bytes"`
}

// writeTrace runs the traced breakdown workload, writes its Perfetto
// trace to path and the profile JSON to path.breakdown.json, and prints
// the critical-path breakdown table.
func writeTrace(path string, short bool) error {
	tr := bench.TraceRun(short)
	prof := tr.Profile()
	var trace, breakdown bytes.Buffer
	if err := errors.Join(tr.WritePerfetto(&trace), prof.WriteJSON(&breakdown)); err != nil {
		return err
	}
	if err := errors.Join(os.WriteFile(path, trace.Bytes(), 0o666), os.WriteFile(path+".breakdown.json", breakdown.Bytes(), 0o666)); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans, %d requests -> %s\n", tr.Len(), tr.Requests(), path)
	return prof.WriteBreakdown(os.Stdout)
}

// check prints a non-nil err and exits with status 1.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// totalAlloc returns the bytes the process has allocated so far, or 0 when
// nobody asked (reading it stops the world).
func totalAlloc(wanted bool) uint64 {
	if !wanted {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		run      = flag.String("run", "all", "experiment ids to run (comma-separated), 'all', 'hostcost' (what each experiment of 'all' costs the host, in exact counts) or 'paper' (the paper's numbers beside ours)")
		short    = flag.Bool("short", false, "reduced sweeps (faster)")
		seed     = flag.Int64("seed", 1, "seed for randomized experiments (fault plane)")
		parallel = flag.Int("parallel", 0, "cell workers per experiment (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "engine shards per cell (0 or 1 = single-threaded engine; output is identical for every value)")
		timings  = flag.Bool("timings", true, "print real (host) runtime per experiment")
		format   = flag.String("format", "table", "output format: table, csv, or json")
		hostmeta = flag.Bool("hostmeta", false, "append a JSON host record (wall clock and bytes allocated in all and per experiment, mallocs, engine events, process switches, inline wakes, bytes copied and cleared, storage reuse) after the tables")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		tracef   = flag.String("trace", "", "run a traced workload and write a Perfetto (Chrome trace-event) JSON file")
	)
	flag.Parse()

	if *tracef != "" {
		check(writeTrace(*tracef, *short))
		return
	}

	if *list {
		for _, e := range append(bench.Registry, bench.HostCost, bench.Paper) {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []bench.Experiment
	if *run == "all" {
		todo = bench.Registry
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		check(err)
		defer f.Close()
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	perExp := make(map[string]float64, len(todo))
	perExpAlloc := make(map[string]uint64, len(todo))

	opts := bench.RunOpts{Short: *short, Seed: *seed, Parallel: *parallel, Shards: *shards}
	for _, e := range todo {
		t0 := time.Now()
		a0 := totalAlloc(*hostmeta)
		tbl := e.Run(opts)
		perExp[e.ID] = time.Since(t0).Seconds()
		perExpAlloc[e.ID] = totalAlloc(*hostmeta) - a0
		switch *format {
		case "csv":
			fmt.Printf("# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
			continue
		case "json":
			fmt.Println(tbl.JSON())
			continue
		}
		fmt.Println(tbl)
		if *timings {
			fmt.Printf("(%s took %.1fs host time)\n\n", e.ID, time.Since(t0).Seconds())
		}
	}

	if *hostmeta {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		meta := hostMeta{
			Parallel:    *parallel,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			WallSeconds: time.Since(start).Seconds(),
			Mallocs:     m1.Mallocs - m0.Mallocs,
			TotalAlloc:  m1.TotalAlloc - m0.TotalAlloc,
			HostWork:    bench.Retired(),
			Experiments: perExp,
			ExpAlloc:    perExpAlloc,
		}
		b, err := json.Marshal(map[string]hostMeta{"hostmeta": meta})
		check(err)
		fmt.Println(string(b))
	}

	if *memprof != "" {
		f, err := os.Create(*memprof)
		check(err)
		defer f.Close()
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
	}
}
