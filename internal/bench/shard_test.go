package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/mpi"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
)

// stormPlan is the harshest scripted scenario the fault plane offers:
// probabilistic work-request errors and registration failures, a link
// spike, a link partition that heals, and an I/O daemon crash with
// restart — all while four ranks run a verified strided list-I/O
// workload. A spike only adds sender-side delay, so it can never move a
// cross-shard event inside the lookahead window.
func stormPlan() *fault.Plan {
	return &fault.Plan{
		Seed:        7,
		WRErrorRate: 0.02,
		RegFailRate: 0.2,
		Spikes: []fault.Spike{
			{From: fault.Wildcard, To: 3, At: 100 * time.Microsecond, Dur: 300 * time.Microsecond, Extra: 15 * time.Microsecond},
		},
		Cuts: []fault.Cut{
			{A: 4, B: 1, At: 200 * time.Microsecond, Dur: 400 * time.Microsecond},
		},
		Crashes: []fault.Crash{
			{Server: 2, At: 300 * time.Microsecond, Down: 600 * time.Microsecond},
		},
	}
}

// stormArtifacts runs the fault-storm workload on a cluster partitioned
// into the given shard count, with span tracing on, and returns every
// observable artifact serialized to bytes: elapsed virtual time, the stats
// snapshot, the fault totals, and the span table — fault instants
// included — as a Perfetto export.
func stormArtifacts(t *testing.T, shards int) []byte {
	t.Helper()
	const (
		nseg    = 64
		segSize = 4 << 10
		ranks   = 4
	)
	cfg := pvfs.DefaultConfig()
	cfg.Faults = stormPlan()
	cfg.Shards = shards
	f := newFixture(cfg, 4, ranks)
	defer f.close()
	tr := f.c.EnableSpans()

	opts := pvfs.OpOptions{Sieve: sieve.Never}
	elapsed := f.runRanks(func(p *sim.Proc, rank *mpi.Rank, cl *pvfs.Client) {
		fh := cl.Open(p, "storm")
		pat := interleaved(nseg, segSize)(rank.ID(), ranks)
		wr := materialize(cl, pat, byte(rank.ID()))
		sim.Must(fh.WriteList(p, wr.Segs, wr.Accs, opts))
		fh.Sync(p)
		rd := materialize(cl, packed(pat), 0)
		sim.Must(fh.ReadList(p, rd.Segs, rd.Accs, opts))
	})

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "elapsed=%d\n", int64(elapsed))
	fmt.Fprintf(&buf, "snapshot=%+v\n", f.c.Snapshot())
	fmt.Fprintf(&buf, "faults=%v\n", f.c.Faults.Totals())
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedStormByteIdentical is the tentpole invariant: partitioning
// the engine into 2, 4, or 8 shards — under one OS thread or several —
// must reproduce the single-shard run byte for byte, on the workload that
// exercises every subsystem at once (faults, recovery, spans,
// crash/restart). Times, counters, span IDs, and span order all count.
func TestShardedStormByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the storm workload eight times")
	}
	want := stormArtifacts(t, 1)
	if len(want) == 0 {
		t.Fatal("empty artifacts")
	}
	for _, shards := range []int{2, 4, 8} {
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := stormArtifacts(t, shards)
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(want, got) {
				i := 0
				for i < len(want) && i < len(got) && want[i] == got[i] {
					i++
				}
				lo, hi := i-80, i+80
				if lo < 0 {
					lo = 0
				}
				window := func(b []byte) []byte {
					h := hi
					if h > len(b) {
						h = len(b)
					}
					if lo >= h {
						return nil
					}
					return b[lo:h]
				}
				t.Fatalf("shards=%d GOMAXPROCS=%d diverges from single-shard run at byte %d:\n--- want ---\n%s\n--- got ---\n%s",
					shards, procs, i, window(want), window(got))
			}
		}
	}
}

// TestShardedFaultsCellMatchesSerial pins the committed experiment path:
// the faults cells (including the storm) through the real sweep/Table
// machinery must emit identical JSON with and without engine sharding.
func TestShardedFaultsCellMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faults experiment twice")
	}
	exp, err := Lookup("faults")
	if err != nil {
		t.Fatal(err)
	}
	serial := exp.Run(RunOpts{Short: true, Seed: 1, Parallel: 2}).JSON()
	sharded := exp.Run(RunOpts{Short: true, Seed: 1, Parallel: 2, Shards: 4}).JSON()
	if serial != sharded {
		t.Fatalf("faults JSON differs between shards=1 and shards=4:\n--- serial ---\n%s\n--- sharded ---\n%s",
			serial, sharded)
	}
}
