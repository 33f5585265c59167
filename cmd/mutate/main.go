// Mutate is the analyzer suite's ledger. Each row of the committed
// catalogue (cmd/mutate/catalogue.json) is a small source mutation that
// breaks one of the simulator's invariants. Mutate applies the rows one at a
// time to a copy of the module and runs every gate over it, timing each:
//
//	build           go build ./...
//	pvfslint        pvfslint ./..., then each analyzer that fired alone
//	package tests   go test of the mutated file's package
//	tests           go test of every package but internal/analysis,
//	                cmd/pvfslint (the suite's self-check re-runs the
//	                linter) and cmd/mutate (its test reads the catalogue
//	                against the unmutated source)
//	hash            the short pvfsbench -run all output's sha256
//
// A row the build rejects is dropped. A test gate's seconds run from its
// start to the first package go test reports failed. The verdict rule (DESIGN.md §6): an
// analyzer stays if some row is caught by it alone, or by it at least ten
// times sooner than by the first test gate that catches the row.
//
// It writes the rows and the per-analyzer verdicts as JSON to stdout and
// progress and the verdict table to stderr. From the module root:
//
//	go run ./cmd/mutate > BENCH_mutation.json    # make mutate
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pvfsib/internal/analysis/suite"
)

const catalogue = "cmd/mutate/catalogue.json"

// mutation is one catalogue row: Old must occur in File exactly once.
type mutation struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	File  string `json:"file"`
	Old   string `json:"old"`
	New   string `json:"new"`
}

// gate is one gate's outcome on one row. First names what caught the row:
// the first failing test, or the reason a build or hash gate failed.
type gate struct {
	Gate      string             `json:"gate"`
	Caught    bool               `json:"caught"`
	Seconds   float64            `json:"seconds"`
	First     string             `json:"first,omitempty"`
	Analyzers map[string]float64 `json:"analyzers,omitempty"`
}

type row struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	File  string `json:"file"`
	First string `json:"first_gate"`
	Gates []gate `json:"gates"`
}

type verdict struct {
	Analyzer string   `json:"analyzer"`
	Rows     []string `json:"rows"`
	Sole     []string `json:"sole"`
	Sooner   []string `json:"sooner_10x"`
	Verdict  string   `json:"verdict"`
}

type ledger struct {
	Go        string    `json:"go"`
	CPUs      int       `json:"cpus"`
	Hash      string    `json:"hash"`
	Rows      []row     `json:"rows"`
	Analyzers []verdict `json:"analyzers"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mutate: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) > 1 {
		return errors.New("takes no arguments; run it from the module root")
	}
	rows, err := readCatalogue(".")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "mutate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "src")
	if err := copyModule(".", dir); err != nil {
		return err
	}
	lint := filepath.Join(tmp, "pvfslint")
	if _, _, err := command(dir, "go", "build", "-o", lint, "./cmd/pvfslint"); err != nil {
		return err
	}
	pkgs, err := testPackages(dir)
	if err != nil {
		return err
	}

	// The unmutated module must pass every gate; this also warms the caches
	// every row then starts from.
	led := ledger{Go: runtime.Version(), CPUs: runtime.NumCPU()}
	if led.Hash, _, err = benchHash(dir); err != nil {
		return fmt.Errorf("unmutated module: %v", err)
	}
	base := gates(dir, lint, ".", pkgs, led.Hash)
	for _, g := range base {
		if g.Caught {
			return fmt.Errorf("unmutated module fails the %s gate: %s %v", g.Gate, g.First, g.Analyzers)
		}
	}

	for _, m := range rows {
		path := filepath.Join(dir, m.File)
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, bytes.Replace(src, []byte(m.Old), []byte(m.New), 1), 0o644); err != nil {
			return err
		}
		r := row{Name: m.Name, Class: m.Class, File: m.File, First: "survived"}
		r.Gates = gates(dir, lint, "./"+filepath.Dir(m.File), pkgs, led.Hash)
		if err := os.WriteFile(path, src, 0o644); err != nil {
			return err
		}
		for _, g := range r.Gates {
			if g.Caught && (r.First == "survived" || g.Seconds < gateOf(r, r.First).Seconds) {
				r.First = g.Gate
			}
		}
		fmt.Fprintf(os.Stderr, "%-40s %-14s %v\n", m.Name, r.First, gateOf(r, "pvfslint").Analyzers)
		led.Rows = append(led.Rows, r)
	}

	for _, a := range suite.All() {
		led.Analyzers = append(led.Analyzers, judge(a.Name, led.Rows))
	}
	fmt.Fprintf(os.Stderr, "\n%-10s %5s %5s %8s  %s\n", "analyzer", "rows", "sole", "10x", "verdict")
	for _, v := range led.Analyzers {
		fmt.Fprintf(os.Stderr, "%-10s %5d %5d %8d  %s\n", v.Analyzer, len(v.Rows), len(v.Sole), len(v.Sooner), v.Verdict)
	}
	out, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(out, '\n'))
	return err
}

// readCatalogue loads the catalogue and checks that each row's Old occurs
// exactly once in its file under root.
func readCatalogue(root string) ([]mutation, error) {
	data, err := os.ReadFile(filepath.Join(root, catalogue))
	if err != nil {
		return nil, err
	}
	var rows []mutation
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %v", catalogue, err)
	}
	for _, m := range rows {
		src, err := os.ReadFile(filepath.Join(root, m.File))
		if err != nil {
			return nil, fmt.Errorf("row %s: %v", m.Name, err)
		}
		if n := strings.Count(string(src), m.Old); n != 1 {
			return nil, fmt.Errorf("row %s: old text occurs %d times in %s, want 1", m.Name, n, m.File)
		}
	}
	return rows, nil
}

// copyModule copies the module's regular files at src to dst, leaving out
// hidden directories and bin.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(src, path)
		switch {
		case err != nil:
			return err
		case d.IsDir() && rel != "." && (rel == "bin" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		case !d.Type().IsRegular():
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// testPackages lists the module's packages but the analysis suite's and
// this one.
func testPackages(dir string) ([]string, error) {
	out, _, err := command(dir, "go", "list", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []string
	for _, p := range strings.Fields(string(out)) {
		if !strings.Contains(p, "/internal/analysis") && !strings.HasSuffix(p, "/cmd/pvfslint") && !strings.HasSuffix(p, "/cmd/mutate") {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// gates runs every gate over the module in dir; pkg is the mutated package.
// A build failure stops the row there.
func gates(dir, lint, pkg string, pkgs []string, hash string) []gate {
	_, secs, err := command(dir, "go", "build", "./...")
	gs := []gate{{Gate: "build", Caught: err != nil, Seconds: secs}}
	if err != nil {
		gs[0].First = err.Error()
		return gs
	}
	// Exit 1 is findings; exit 2, a load error, is no catch.
	out, secs, err := command(dir, lint, "-json", "./...")
	lg := gate{Gate: "pvfslint", Seconds: secs}
	var findings []struct{ Analyzer string }
	if jerr := json.Unmarshal(out, &findings); err != nil && jerr != nil {
		lg.First = err.Error()
	}
	lg.Caught = len(findings) > 0
	for _, f := range findings {
		if lg.Analyzers == nil {
			lg.Analyzers = make(map[string]float64)
		}
		if _, seen := lg.Analyzers[f.Analyzer]; !seen {
			_, secs, err := command(dir, lint, "-only", f.Analyzer, "./...")
			if err == nil {
				lg.First = f.Analyzer + " finds nothing alone"
			}
			lg.Analyzers[f.Analyzer] = secs
		}
	}
	gs = append(gs, lg,
		testGate("package tests", dir, []string{pkg}),
		testGate("tests", dir, pkgs))
	h, secs, err := benchHash(dir)
	hg := gate{Gate: "hash", Caught: h != hash, Seconds: secs}
	if err != nil {
		hg.First = err.Error()
	} else if hg.Caught {
		hg.First = "hash " + h[:8]
	}
	return append(gs, hg)
}

// testGate runs go test -json over pkgs. It catches the row when a
// package fails, at the time go test reports it — when the package's test
// binary exits, or its build fails — and names the package's first failing
// test.
func testGate(name, dir string, pkgs []string) gate {
	start := time.Now()
	out, secs, err := command(dir, "go", append([]string{"test", "-count=1", "-json", "-timeout=300s"}, pkgs...)...)
	g := gate{Gate: name, Caught: err != nil, Seconds: secs}
	firstTest := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Time                              time.Time
			Action, Package, Test, ImportPath string
		}
		switch {
		case json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Action != "fail" && ev.Action != "build-fail":
		case ev.Test != "":
			if firstTest[ev.Package] == "" {
				firstTest[ev.Package] = ev.Package + "." + ev.Test
			}
		default:
			g.Caught, g.Seconds, g.First = true, ev.Time.Sub(start).Seconds(), firstTest[ev.Package]
			if g.First == "" {
				g.First = ev.Package + ev.ImportPath
			}
			return g
		}
	}
	return g
}

// benchHash returns the sha256 of the short pvfsbench run of every
// experiment — the output TestRegistryGolden pins — and the run's seconds.
func benchHash(dir string) (string, float64, error) {
	out, secs, err := command(dir, "go", "run", "./cmd/pvfsbench", "-short", "-seed", "1", "-format", "json", "-timings=false", "-run", "all")
	if err != nil {
		return "", secs, err
	}
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:]), secs, nil
}

// command runs name in dir and returns its stdout and wall time; the error
// of a failed command carries the first line of its stderr.
func command(dir, name string, args ...string) ([]byte, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	secs := time.Since(start).Seconds()
	if err != nil {
		err = fmt.Errorf("%s: %v: %s", name, err, firstLine(stderr.Bytes()))
	}
	return stdout.Bytes(), secs, err
}

func firstLine(out []byte) string {
	line, _, _ := bytes.Cut(bytes.TrimSpace(out), []byte("\n"))
	return string(line)
}

func gateOf(r row, name string) gate {
	for _, g := range r.Gates {
		if g.Gate == name {
			return g
		}
	}
	return gate{}
}

// judge applies the verdict rule to one analyzer over the rows.
func judge(name string, rows []row) verdict {
	v := verdict{Analyzer: name, Rows: []string{}, Sole: []string{}, Sooner: []string{}, Verdict: "cut"}
	for _, r := range rows {
		lint := gateOf(r, "pvfslint")
		secs, fired := lint.Analyzers[name]
		if !fired {
			continue
		}
		v.Rows = append(v.Rows, r.Name)
		test := math.Inf(1)
		for _, g := range r.Gates[2:] {
			if g.Caught {
				test = min(test, g.Seconds)
			}
		}
		switch {
		case len(lint.Analyzers) == 1 && math.IsInf(test, 1):
			v.Sole = append(v.Sole, r.Name)
		case secs*10 <= test:
			v.Sooner = append(v.Sooner, r.Name)
		}
	}
	if len(v.Sole)+len(v.Sooner) > 0 {
		v.Verdict = "stays"
	}
	return v
}
