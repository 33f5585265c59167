package bench

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/mpiio"
)

// hostCostPath is the committed host-cost artifact, byte for byte what
// `make bench-hostcost` writes.
const hostCostPath = "../../BENCH_hostcost.json"

// TestHostCostFile pins what every short experiment costs the host — events,
// process switches, inline wakes, bytes copied and cleared — to the committed
// counts: they are exact, so a relay or a copy put back on a data path is a
// failure here, not a suspicion in a wall-clock reading. The file is written
// by a serial run in a process of its own (`make bench-hostcost`, which
// regenerates it after a deliberate change, or -update); the test compares it
// with the suite's one pass over the registry, cells spread over every P,
// and then with a serial pass over a sample of experiments on a single P.
func TestHostCostFile(t *testing.T) {
	serial := RunOpts{Short: true, Seed: 1, Parallel: 1, Shards: 1}
	if *update {
		if err := os.WriteFile(hostCostPath, []byte(HostCost.Run(serial).JSON()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(hostCostPath)
	if err != nil {
		t.Fatal(err)
	}
	var want Table
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != len(Registry) {
		t.Fatalf("%s holds %d rows, Registry %d experiments", hostCostPath, len(want.Rows), len(Registry))
	}
	check := func(t *testing.T, exps []Experiment, work []HostWork) {
		t.Helper()
		got := HostCost.newTable()
		for i, e := range exps {
			got.Add(hostCostRow(e.ID, work[i])...)
			if row := want.FindRow(e.ID); row < 0 || !slices.Equal(got.Rows[i], want.Rows[row]) {
				t.Errorf("host cost of %s differs from %s (make bench-hostcost regenerates it):\nwant: %v\ngot:  %v",
					e.ID, hostCostPath, want.Rows[max(row, 0)], got.Rows[i])
			}
		}
	}
	t.Run("every P", func(t *testing.T) { check(t, Registry, shortRun().work) })
	t.Run("GOMAXPROCS=1", func(t *testing.T) {
		// Bare fabric, transfer schemes, MPI collectives, faults, the page
		// cache, spans, metrics: every kind of cell, cheaply.
		var sample []Experiment
		for _, id := range []string{"fig3", "fig4", "table5", "table6", "faults", "cache", "breakdown", "timeline"} {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			sample = append(sample, e)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t, sample, costOf(sample, serial, nil))
	})
}

// TestFillPatternMatchesFormula: the table fill writes, for random seeds and
// layouts — empty segments, segments crossing the table's run length, odd
// offsets — exactly byte(seed + i*31 + j) at byte j of segment i, and nothing
// outside the segments.
func TestFillPatternMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 40; round++ {
		seed := byte(rng.Intn(256))
		var pat mpiio.Flat
		off := int64(rng.Intn(3))
		for n := rng.Intn(12); n >= 0; n-- {
			var length int64
			switch rng.Intn(4) {
			case 0: // zero-length span
			case 1:
				length = int64(rng.Intn(700))
			case 2:
				length = fillRun - 300 + int64(rng.Intn(600)) // around one run
			default:
				length = 2*fillRun + int64(rng.Intn(5000)) // several runs
			}
			pat = append(pat, mpiio.Flat{{Off: off, Len: length}}...)
			off += length + int64(rng.Intn(300))
		}
		space := mem.NewAddrSpace("fill")
		base := space.Malloc(off + 1)
		segs := make([]ib.SGE, len(pat))
		want := make([]byte, off+1)
		for i, r := range pat {
			segs[i] = ib.SGE{Addr: base + mem.Addr(r.Off), Len: r.Len}
			for j := int64(0); j < r.Len; j++ {
				want[r.Off+j] = byte(int(seed) + i*31 + int(j))
			}
		}
		fillPattern(space, segs, seed)
		got, err := space.Read(base, off+1)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("round %d (seed %d, %d segments): byte %d = %#x, want %#x", round, seed, len(segs), k, got[k], want[k])
			}
		}
	}
}
