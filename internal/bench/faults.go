package bench

import (
	"fmt"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
)

// faultScenario is one row of the fault-plane sweep.
type faultScenario struct {
	name string
	rate float64
	plan func(seed int64) *fault.Plan // nil = fault-free
}

// wrErrors is the scenario injecting work-request errors at rate.
func wrErrors(rate float64) faultScenario {
	sc := faultScenario{name: "wr-errors", rate: rate}
	if rate != 0 {
		sc.plan = func(seed int64) *fault.Plan { return &fault.Plan{Seed: seed, WRErrorRate: rate} }
	}
	return sc
}

// storm adds registration pressure, a partition that heals, and an I/O
// daemon crash/restart to the work-request errors.
var storm = faultScenario{name: "storm", rate: 0.02, plan: func(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed:        seed,
		WRErrorRate: 0.02,
		RegFailRate: 0.2,
		Cuts: []fault.Cut{
			{A: 4, B: 1, At: 200 * time.Microsecond, Dur: 400 * time.Microsecond},
		},
		Crashes: []fault.Crash{
			{Server: 2, At: 300 * time.Microsecond, Down: 600 * time.Microsecond},
		},
	}
}}

// faults sweeps the fault plane: four clients write and read back a strided
// list-I/O workload (64 x 4 kB interleaved segments per rank) while the
// injector corrupts work requests, and a final "storm" row piles every
// fault class on. Every cell verifies the read-back bytes — a row only
// appears if no data was lost. The table reports completion time and the
// recovery layer's counters instead of bandwidth: the interesting quantity
// is the price of each fault class, not the fabric's peak. Each cell builds
// its own fault plan so nothing is shared across engines, and honors
// o.Shards; the result is byte-identical for every value.
var faults = Experiment{
	ID:    "faults",
	Title: "Recovery under injected faults (fault-plane sweep)",
	table: "Recovery under injected faults: completion time and recovery work (4+4, 64x4kB per rank)",
	header: []string{"scenario", "wr_rate",
		"time_ms", "retries", "timeouts", "fallbacks", "aborts", "qp_resets"},
	notes: []string{"all cells verified byte-identical read-back; time grows with fault rate while the data stays intact"},
	sweep: func(o RunOpts) []group {
		var scenarios []faultScenario
		for _, rate := range pick(o.Short, []float64{0, 0.02}, []float64{0, 0.005, 0.02, 0.05}) {
			scenarios = append(scenarios, wrErrors(rate))
		}
		return each(append(scenarios, storm),
			func(sc faultScenario) ioResult {
				b := paperBed()
				b.cfg.Shards = o.Shards
				if sc.plan != nil {
					b.cfg.Faults = sc.plan(o.Seed)
				}
				return b.one(listIO{file: "faults", layout: interleaved(64, 4<<10),
					opts: &pvfs.OpOptions{Sieve: sieve.Never}, sync: true, verify: true})
			},
			func(t *Table, sc faultScenario, r ioResult) {
				t.Add(sc.name, fmt.Sprintf("%.3f", sc.rate), r.elapsed.Seconds()*1e3,
					r.snap.Retries, r.snap.Timeouts, r.snap.Fallbacks, r.snap.ServerAborts, r.snap.QPResets)
			})
	},
}
