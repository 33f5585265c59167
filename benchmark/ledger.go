package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// spec is one end-to-end metric's contract: unit, direction and the share
// of the old median by which it may get worse. BENCHMARK.json carries the
// same table; bench_test.go keeps the two equal.
type spec struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

var endToEndSpecs = []spec{
	{"virt_mbps", "MB/s", true, 0.03},
	{"virt_op_ms_p50", "ms", false, 0.02},
	{"virt_op_ms_p90", "ms", false, 0.10},
	{"host_wall_s", "s", false, 0.25},
	{"host_mallocs_per_op", "count", false, 0.02},
	{"host_alloc_kb_per_op", "kB", false, 0.02},
	{"setup_s", "s", false, 0.25},
}

// series is one metric's values over the repetitions of one workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

// ledgerEntry is one workload's part of a ledger.
type ledgerEntry struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer,omitempty"`
}

// ledger is what a run over every workload writes and -compare reads.
type ledger struct {
	// Build identifies the benchmark binary; two ledgers of one build and
	// one seed must agree on every deterministic number.
	Build     string                  `json:"build"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*ledgerEntry `json:"workloads"`
}

// ledgerReps is how many child processes a ledger runs per workload; its
// host metrics are their medians.
const ledgerReps = 3

// runLedger runs every workload ledgerReps times, each run in a fresh child
// process, plus one traced run per workload when asked, prints every metric
// by name and writes the ledger to outDir.
func runLedger(seed int64, seconds float64, traced bool, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	build, err := fileDigest(exe)
	if err != nil {
		return err
	}
	led := &ledger{Build: build, Seed: seed, Seconds: seconds, Workloads: map[string]*ledgerEntry{}}
	child := func(wl *workload, secs float64, trace int) (*result, error) {
		cmd := exec.Command(exe, "-workload", wl.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace), "-out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		return lastLine(out)
	}
	failed := false
	for _, wl := range workloads {
		e := &ledgerEntry{EndToEnd: map[string]*series{}}
		led.Workloads[wl.name] = e
		add := func(into map[string]*series, r *result) {
			e.Attempted += r.Attempted
			e.Failed += r.Failed
			for _, name := range sortedKeys(r.Metrics) {
				m := r.Metrics[name]
				if into[name] == nil {
					into[name] = &series{Unit: m.Unit}
				}
				into[name].Values = append(into[name].Values, m.Value)
			}
		}
		for i := 0; i < ledgerReps; i++ {
			r, err := child(wl, seconds, 0)
			if err != nil {
				return err
			}
			add(e.EndToEnd, r)
		}
		if traced {
			// The kernels share what the traced passes leave of the
			// budget; the extra seconds give each its full length.
			extra := ledgerKernelDur.Seconds() * float64(len(kernels)+1)
			r, err := child(wl, seconds+extra, 1)
			if err != nil {
				return err
			}
			e.PerLayer = map[string]*series{}
			add(e.PerLayer, r)
		}
		fmt.Printf("%s: %d operations attempted, %d failed\n", wl.name, e.Attempted, e.Failed)
		for _, set := range []map[string]*series{e.EndToEnd, e.PerLayer} {
			for _, name := range sortedKeys(set) {
				s := set[name]
				s.Median = median(s.Values)
				fmt.Printf("  %-40s %16.6g %s\n", name, s.Median, s.Unit)
			}
		}
		failed = failed || e.Failed != 0
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(led, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("ledger-seed%d.json", seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed {
		return fmt.Errorf("operations failed; see above")
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lastLine parses the result a single-workload run prints last.
func lastLine(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	r := &result{}
	if err := json.Unmarshal(last, r); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return r, nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	led := &ledger{}
	if err := json.Unmarshal(data, led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

// hostClock reports whether a metric is read off the host clock; every
// other metric is a deterministic count or virtual time.
func hostClock(name string) bool {
	return strings.HasPrefix(name, "host_") || name == "setup_s" ||
		strings.Contains(name, ".host_") || strings.HasPrefix(name, "harness.") ||
		name == "sim.shards2_speedup"
}

// spread is the distance between the extremes of the values as a share of
// their median; with three repetitions the quartiles are the extremes.
func spread(s *series) float64 {
	if len(s.Values) < 2 || s.Median == 0 {
		return 0
	}
	return (slices.Max(s.Values) - slices.Min(s.Values)) / s.Median
}

// compareLedgers prints, per workload and end-to-end metric, old, new, the
// ratio with its base, the bound and a verdict, then every deterministic
// number that differs. It returns an error on any regression, and on any
// deterministic difference between two ledgers of one build and seed.
func compareLedgers(w io.Writer, oldPath, newPath string) error {
	old, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	cur, err := readLedger(newPath)
	if err != nil {
		return err
	}
	sameRun := old.Build == cur.Build && old.Seed == cur.Seed
	regressed, differs := 0, 0
	for _, wl := range workloads {
		o, n := old.Workloads[wl.name], cur.Workloads[wl.name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%s: missing from one ledger\n", wl.name)
			regressed++
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		if n.Failed > o.Failed {
			fmt.Fprintf(w, "  %-24s old %d new %d  regressed (bound 0)\n", "ops_failed", o.Failed, n.Failed)
			regressed++
		}
		for _, sp := range endToEndSpecs {
			was, now := o.EndToEnd[sp.name], n.EndToEnd[sp.name]
			if was == nil || now == nil {
				fmt.Fprintf(w, "  %-24s missing\n", sp.name)
				regressed++
				continue
			}
			worse := now.Median/was.Median - 1
			if sp.higher {
				worse = was.Median/now.Median - 1
			}
			verdict := "ok"
			switch {
			case worse > sp.bound && (spread(was) <= sp.bound && spread(now) <= sp.bound || disjointWorse(was, now, sp.higher)):
				verdict = "regressed"
				regressed++
			case spread(was) > sp.bound || spread(now) > sp.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "  %-24s old %-12.6g new %-12.6g new/old %.4f of %.6g %s  bound %.0f%%  %s\n",
				sp.name, was.Median, now.Median, now.Median/was.Median, was.Median, sp.unit, sp.bound*100, verdict)
		}
		for _, set := range []struct{ o, n map[string]*series }{{o.EndToEnd, n.EndToEnd}, {o.PerLayer, n.PerLayer}} {
			for _, name := range sortedKeys(set.o) {
				if hostClock(name) || set.n[name] == nil {
					continue
				}
				if ov, nv := set.o[name].Median, set.n[name].Median; ov != nv {
					fmt.Fprintf(w, "  %-40s differs: old %v new %v\n", name, ov, nv)
					differs++
				}
			}
		}
	}
	switch {
	case regressed > 0:
		return fmt.Errorf("%d regressions", regressed)
	case differs > 0 && sameRun:
		return fmt.Errorf("%d deterministic numbers differ between two runs of one build and seed", differs)
	}
	return nil
}

// disjointWorse reports whether every new value is worse than every old
// one, which resolves a difference even when the spread is wide.
func disjointWorse(o, n *series, higher bool) bool {
	for _, ov := range o.Values {
		for _, nv := range n.Values {
			if higher && nv >= ov || !higher && nv <= ov {
				return false
			}
		}
	}
	return true
}
