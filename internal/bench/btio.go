package bench

import (
	"fmt"
	"slices"
	"time"

	"pvfsib/internal/mpi"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/stats"
	"pvfsib/internal/workload"
)

// btioMethod is one Table 5 row; "no I/O" runs the compute loop alone.
type btioMethod struct {
	label  string
	method mpiio.Method
	noIO   bool
}

// btioMethods lists the Table 5 rows in paper order.
var btioMethods = []btioMethod{
	{"no I/O", 0, true},
	{"Multiple I/O", mpiio.MultipleIO, false},
	{"Collective I/O", mpiio.Collective, false},
	{"List I/O", mpiio.ListIO, false},
	{"List I/O with ADS", mpiio.ListIOADS, false},
	{"Data Sieving", mpiio.DataSieving, false},
}

// btioResult captures one BTIO run.
type btioResult struct {
	totalS float64
	ioS    float64
	snap   stats.Snapshot
}

// runBTIO executes the BTIO workload with one method: Steps compute phases
// with a solution dump every Steps/Dumps steps, then a read-back
// verification of the entire solution history, timing the I/O share.
func runBTIO(spec workload.BTIOSpec, m mpiio.Method, noIO bool) btioResult {
	f := newFixture(pvfs.DefaultConfig(), 4, spec.NProcs)
	defer f.close()
	stepsPerDump := spec.Steps / spec.Dumps
	var ioTime sim.Duration

	elapsed := f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		file := mpiio.Open(p, cl, rank, "btio")
		// One reusable memory buffer per rank, sized for a dump.
		buf := materialize(cl, spec.Dump(rank.ID(), 0), byte(rank.ID()))
		compute := sim.Duration(spec.StepCompute * float64(time.Second))
		dump := 0
		for step := 1; step <= spec.Steps; step++ {
			p.Sleep(compute)
			if step%stepsPerDump == 0 && !noIO {
				pat := spec.Dump(rank.ID(), dump)
				t0 := p.Now()
				sim.Must(file.Write(p, m, buf.Segs, []pvfs.OffLen(pat.File)))
				if rank.ID() == 0 {
					ioTime += p.Now().Sub(t0)
				}
				dump++
			}
		}
		if noIO {
			return
		}
		// Verification read-back of the full solution history.
		for d := 0; d < spec.Dumps; d++ {
			pat := spec.Dump(rank.ID(), d)
			t0 := p.Now()
			sim.Must(file.Read(p, m, buf.Segs, []pvfs.OffLen(pat.File)))
			if rank.ID() == 0 {
				ioTime += p.Now().Sub(t0)
			}
		}
	})
	return btioResult{
		totalS: elapsed.Seconds(),
		ioS:    ioTime.Seconds(),
		snap:   f.c.Snapshot(),
	}
}

func btioSpec(short bool) workload.BTIOSpec {
	spec := workload.PaperBTIOSpec()
	if short {
		spec.Grid = 16
		spec.Dumps = 4
		spec.Steps = 40
		spec.StepCompute = 0.05
	}
	return spec
}

// btioCases labels the rows of Table 5 that do I/O, in paper order.
var btioCases = []string{"Multiple I/O", "Collective I/O", "List I/O", "List I/O with ADS", "Data Sieving"}

// table5 reproduces the paper's Tables 5 and 6 from one BTIO class A run per
// access method: total execution time and I/O overhead (Table 5), then the
// request, registration, cache-hit and file-access counts and the bytes
// moved between node classes (Table 6). One group holds the six runs, so the
// renderer sees the no-I/O baseline beside every method.
var table5 = Experiment{
	ID:     "table5",
	Title:  "NAS BTIO class A: time, I/O overhead, and request, registration, file-access and traffic counts per method (Tables 5 and 6)",
	header: []string{"case", "time_s", "io_overhead_ms", "req#", "reg#", "reg_hits", "read#", "write#", "cs_MB", "cc_MB"},
	notes:  []string{"req# counts physical per-server request messages; the paper counts logical client requests"},
	paper: slices.Concat(
		column("time_s", "compute time is set to the paper's no-I/O run; each method adds its I/O overhead",
			append([]string{"no I/O"}, btioCases...), 165.6, 180.0, 169.6, 168.2, 167.7, 177.3),
		column("io_overhead_ms", "deviation: our overheads are several times smaller; the servers overlap four clients and BTIO stays in their page caches",
			btioCases, 14400, 4000, 2600, 2100, 11700),
		[]cite{
			{row: "Multiple I/O", col: "io_overhead_ms", over: "List I/O with ADS", paper: 6.9, claim: "ADS cuts Multiple I/O's overhead the most"},
			{row: "List I/O", col: "io_overhead_ms", over: "Collective I/O", paper: 0.65, claim: "deviation: the paper has List I/O ahead of Collective I/O; ours has Collective I/O ahead"},
			{claim: "ADS has the least I/O overhead, Multiple I/O the most"},
		},
		column("req#", "list I/O cuts the requests by about two orders of magnitude", btioCases, 163840, 160, 1360, 1360, 82040),
		column("reg#", "deviation: our Multiple I/O packs its pieces and registers nothing, and OGR registers once per operation, not per request",
			btioCases, 163840, 160, 1360, 1360, 82040),
		column("reg_hits", "the pin-down cache turns repeated registrations into hits", btioCases, 52000, 158, 1324, 1324, 26039),
		column("read#", "ADS collapses the servers' file reads; plain list I/O reads each fragment", btioCases, 81920, 1600, 81920, 5120, 3140),
		column("write#", "ADS collapses the servers' file writes; ROMIO DS writes like Multiple I/O", btioCases, 81920, 1600, 81920, 2560, 81920),
		column("cs_MB", "ROMIO DS moves unwanted data; ours counts the dumps and their read-back, the paper one direction",
			btioCases, 200, 200, 200, 200, 490),
		column("cc_MB", "only Collective I/O moves data between compute nodes", btioCases, 0, 150, 0, 0, 0),
	),
	sweep: func(o RunOpts) []group {
		return grid([]string{"btio"}, btioMethods,
			func(_ string, m btioMethod) btioResult { return runBTIO(btioSpec(o.Short), m.method, m.noIO) },
			func(t *Table, _ string, runs []btioResult) {
				base := runs[0].totalS
				for i, r := range runs {
					s := r.snap
					counts := []any{s.ReadReqs + s.WriteReqs, s.RegLookups, s.RegCacheHits, s.FSReadCalls, s.FSWriteCalls,
						fmt.Sprintf("%.0f", float64(s.BytesClientServer)/MB), fmt.Sprintf("%.0f", float64(s.BytesClientClient)/MB)}
					if btioMethods[i].noIO {
						counts = []any{"-", "-", "-", "-", "-", "-", "-"}
					}
					t.Add(append([]any{btioMethods[i].label, r.totalS, 1000 * max(r.totalS-base, r.ioS)}, counts...)...)
				}
			})
	},
}
