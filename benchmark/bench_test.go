package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pvfsib/internal/pvfs"
)

// cycles runs the first n cycles of a workload on a fresh cluster, every
// cycle cut to its first limit rounds when limit is positive, and returns
// the bench after the final read-back and the quiescence check.
func cycles(t *testing.T, wl *workload, seed int64, n, limit int) (*bench, counts) {
	t.Helper()
	b := newBench(seed, pvfs.DefaultConfig(), nil)
	defer b.close()
	cycle := wl.build(b)
	base := b.settle()
	b.inWindow = true
	for k := 0; k < n; k++ {
		b.rounds = 0
		b.roundLimit = limit
		cycle(k)
	}
	b.inWindow = false
	c := gatherCounts(b)
	b.verifyAll()
	b.checkQuiescent(base)
	return b, c
}

// Every workload passes verification on its first round, returns its
// resources at quiescence, and only ckpt-cache touches the page cache; a
// second run at the same seed repeats the modelled cluster's clock and every
// layer count bit for bit.
func TestWorkloadsVerify(t *testing.T) {
	for _, wl := range workloads {
		b, c := cycles(t, wl, 1, 1, 1)
		if b.failed != 0 || b.mismatch != 0 {
			t.Errorf("%s: %d of %d operations failed, %d bytes differ: %v", wl.name, b.failed, b.attempted, b.mismatch, b.problems)
		}
		if b.attempted < 2 {
			t.Errorf("%s: only %d operations attempted", wl.name, b.attempted)
		}
		var pcache float64
		for name, v := range c {
			if strings.HasPrefix(name, "pcache.") {
				pcache += v
			}
		}
		if cached := wl.name == "ckpt-cache"; cached != (pcache != 0) {
			t.Errorf("%s: pcache counters sum to %v", wl.name, pcache)
		}
		b2, c2 := cycles(t, wl, 1, 1, 1)
		if !reflect.DeepEqual(b.opNs, b2.opNs) || b.sectNs != b2.sectNs || b.payload != b2.payload {
			t.Errorf("%s: virtual times differ between two runs at one seed", wl.name)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Errorf("%s: layer counts differ between two runs at one seed:\n%v\n%v", wl.name, c, c2)
		}
	}
}

// Operation count and payload of a cycle do not depend on the seed, and
// every workload's virt window holds enough timed operations.
func TestSeedInvariantWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one whole cycle of every workload twice")
	}
	for _, wl := range workloads {
		b1, _ := cycles(t, wl, 1, 1, 0)
		b2, _ := cycles(t, wl, 2, 1, 0)
		if b1.attempted != b2.attempted || b1.payload != b2.payload {
			t.Errorf("%s: seed 1 issued %d operations moving %d B, seed 2 %d moving %d B",
				wl.name, b1.attempted, b1.payload, b2.attempted, b2.payload)
		}
		if ops := len(b1.opNs) * wl.virtCycles; ops < minTimedOps {
			t.Errorf("%s: %d timed operations in the virt window, want %d", wl.name, ops, minTimedOps)
		}
		if b1.failed+b2.failed != 0 {
			t.Errorf("%s: operations failed: %v %v", wl.name, b1.problems, b2.problems)
		}
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json names exactly the workloads and end-to-end metrics the
// harness prints, with the units it prints and the bounds -compare applies.
func TestBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) > 8 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer))
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	// The cheapest workload stands in for all: every run prints the same
	// metric names.
	storm := findWorkload("fault-storm")
	e2e := runEndToEnd(storm, 1, 0.2)
	if !e2e.Correct {
		t.Errorf("fault-storm failed: %v", e2e.problems)
	}
	if len(doc.EndToEnd) != len(endToEndSpecs) || len(doc.EndToEnd) != len(e2e.Metrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, -compare knows %d, a run prints %d",
			len(doc.EndToEnd), len(endToEndSpecs), len(e2e.Metrics))
	}
	for i, m := range doc.EndToEnd {
		sp := endToEndSpecs[i]
		if m.Name != sp.name || m.Unit != sp.unit || (m.Better == "higher") != sp.higher || m.Bound != sp.bound {
			t.Errorf("end-to-end metric %d is %+v, -compare applies %+v", i, m, sp)
		}
		if got, ok := e2e.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value == 0 {
			t.Errorf("a run prints %q as %+v", m.Name, got)
		}
		if !metricName.MatchString(m.Name) || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
	}
	for _, m := range doc.PerLayer {
		if !metricName.MatchString(m.Name) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
}

// BENCHMARK.json names exactly the per-layer metrics a traced run prints,
// with their units, and the page cache stays untouched outside ckpt-cache.
func TestTracedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("a traced run costs half a minute")
	}
	doc := readBenchmarkJSON(t)
	traced, err := runTraced(findWorkload("fault-storm"), 1, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !traced.Correct {
		t.Errorf("fault-storm failed under tracing: %v", traced.problems)
	}
	if len(doc.PerLayer) != len(traced.Metrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(doc.PerLayer), len(traced.Metrics))
	}
	for _, m := range doc.PerLayer {
		if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("a traced run prints %q as %+v, BENCHMARK.json wants unit %q", m.Name, got, m.Unit)
		}
	}
	for n, m := range traced.Metrics {
		if strings.HasPrefix(n, "pcache.") && !strings.Contains(n, ".host_") && m.Value != 0 {
			t.Errorf("fault-storm: %s = %v, want 0 outside ckpt-cache", n, m.Value)
		}
	}
}

// -compare accepts a ledger against itself and rejects a regression, and a
// deterministic number that differs between two runs of one build and seed.
func TestCompare(t *testing.T) {
	mk := func(wall, mbps, events float64) *ledger {
		led := &ledger{Build: "b", Seed: 1, Workloads: map[string]*ledgerEntry{}}
		for _, wl := range workloads {
			e := &ledgerEntry{Attempted: 10, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
			for _, sp := range endToEndSpecs {
				e.EndToEnd[sp.name] = &series{Unit: sp.unit, Values: []float64{1, 1, 1}, Median: 1}
			}
			e.EndToEnd["host_wall_s"] = &series{Unit: "s", Values: []float64{wall, wall, wall}, Median: wall}
			e.EndToEnd["virt_mbps"] = &series{Unit: "MB/s", Values: []float64{mbps, mbps, mbps}, Median: mbps}
			e.PerLayer["sim.events"] = &series{Unit: "count", Values: []float64{events}, Median: events}
			led.Workloads[wl.name] = e
		}
		return led
	}
	dir := t.TempDir()
	write := func(name string, led *ledger) string {
		data, err := json.Marshal(led)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(2, 100, 5000))
	var out bytes.Buffer
	if err := compareLedgers(&out, base, base); err != nil {
		t.Errorf("a ledger against itself: %v\n%s", err, out.String())
	}
	if err := compareLedgers(&out, base, write("faster.json", mk(1.5, 100, 5000))); err != nil {
		t.Errorf("a faster host clock: %v", err)
	}
	for name, led := range map[string]*ledger{
		"slower host":        mk(2.6, 100, 5000),
		"slower cluster":     mk(2, 90, 5000),
		"unrepeatable count": mk(2, 100, 5001),
	} {
		if err := compareLedgers(&out, base, write("worse.json", led)); err == nil {
			t.Errorf("%s: -compare accepted it", name)
		}
	}
	other := mk(2, 100, 5001)
	other.Build = "c"
	if err := compareLedgers(&out, base, write("other.json", other)); err != nil {
		t.Errorf("a count that differs between two builds is a diff, not an error: %v", err)
	}
}

// Host spans nest and their self times add up to the root.
func TestHostSpans(t *testing.T) {
	h := newHostSpans("root")
	a := h.start("a")
	h.start("b").end()
	a.end()
	h.finish()
	if err := h.check(); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range h.selfSeconds() {
		sum += s
	}
	if root := float64(h.recs[0].EndNs-h.recs[0].StartNs) / 1e9; sum < root*0.999999 || sum > root*1.000001 {
		t.Errorf("self times sum to %v, the root lasted %v", sum, root)
	}
	h.recs[2].EndNs = h.recs[1].EndNs + 1
	if h.check() == nil {
		t.Error("a child that outlives its parent passed the check")
	}
}
