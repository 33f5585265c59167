package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"testing"

	"pvfsib/internal/metrics"
	"pvfsib/internal/sim"
	"pvfsib/internal/sim/simtest"
)

// timelineArtifacts runs the short timeline workload on a cluster
// partitioned into the given shard count and returns every observable
// metrics artifact serialized to bytes: the registry's full JSON dump,
// its Prometheus text exposition, and the rendered experiment table.
func timelineArtifacts(shards int) []byte {
	var buf bytes.Buffer
	t := timeline.newTable()
	timelineRows(t, timelineRun(true, shards, &buf))
	buf.WriteString(t.JSON())
	return buf.Bytes()
}

// TestTimelineByteIdentical is the metrics plane's determinism tentpole:
// the sampled series — per-node ring contents, canonical merge order,
// derived utilization rows, saturation verdicts — must reproduce the
// single-shard run byte for byte at any shard count under one OS thread
// or several. Metrics are sampled on the virtual clock with no sampler
// events, so enabling them can never perturb the timeline they measure.
func TestTimelineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the timeline workload five times")
	}
	want := timelineArtifacts(1)
	if len(want) == 0 {
		t.Fatal("empty artifacts")
	}
	for _, shards := range []int{2, 4} {
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := timelineArtifacts(shards)
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(want, got) {
				i := 0
				for i < len(want) && i < len(got) && want[i] == got[i] {
					i++
				}
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				window := func(b []byte) []byte {
					hi := i + 80
					if hi > len(b) {
						hi = len(b)
					}
					if lo >= hi {
						return nil
					}
					return b[lo:hi]
				}
				t.Fatalf("shards=%d GOMAXPROCS=%d diverges from single-shard run at byte %d:\n--- want ---\n%s\n--- got ---\n%s",
					shards, procs, i, window(want), window(got))
			}
		}
	}
}

// metricsGoldenPath holds the sha256 of the short timeline cell's full
// metrics dump: the registry's JSON export followed by its Prometheus text,
// as timelineRun writes them. Every series of every node is in it, the
// page-cache, RPC-recovery, lease and pin-down-cache counters included.
const metricsGoldenPath = "testdata/metrics.golden.sha256"

// TestTimelineMetricsGolden pins the metrics plane to committed bytes, so a
// change to how a layer counts or attaches either reproduces the dump
// exactly or fails here. `go test ./internal/bench -run
// TestTimelineMetricsGolden -update` regenerates the hash after a
// deliberate change.
func TestTimelineMetricsGolden(t *testing.T) {
	var dump bytes.Buffer
	timelineRun(true, 1, &dump)
	got := fmt.Sprintf("%x  metrics\n", sha256.Sum256(dump.Bytes()))
	if *update {
		if err := os.WriteFile(metricsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("timeline metrics dump differs from %s:\ngot:\n%swant:\n%s", metricsGoldenPath, got, want)
	}
}

// TestTimelineDetectsSaturation pins the committed artifact's headline:
// the checkpoint-burst workload must drive the disks to a detected
// saturation point in both geometries, or BENCH_timeline.json stops
// demonstrating the detector.
func TestTimelineDetectsSaturation(t *testing.T) {
	for _, short := range []bool{true, false} {
		r := timelineRun(short, 0, nil)
		if k := saturationPoint(r.diskUtil, r.diskQ, 0.95); k < 0 {
			t.Errorf("short=%v: no disk saturation point detected", short)
		}
	}
}

// TestMetricsNilSinkAllocFree: zero-value instrument handles — what every
// layer holds when no registry is attached — must cost nothing on the
// allocator, because the sampling sites run unconditionally on the
// simulator's hot paths.
func TestMetricsNilSinkAllocFree(t *testing.T) {
	var c metrics.Counter
	var g metrics.Gauge
	var b metrics.Busy
	simtest.Measure(t, "nil metrics sinks", func() {
		for i := 0; i < 64; i++ {
			c.Add(sim.Time(i), 1)
			g.Set(sim.Time(i), int64(i))
			g.Add(sim.Time(i), -1)
			b.AddSpan(sim.Time(i), sim.Time(i+1))
		}
	})
}
