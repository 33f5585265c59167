package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestUsageErrors checks the flag contract: usage problems are exit 2 and
// never reach package loading.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown -only analyzer", []string{"-only", "nosuch"}},
		{"bad -budget duration", []string{"-budget", "banana"}},
		{"-only without a list", []string{"-only"}},
		{"-only a folded analyzer", []string{"-only", "mrlife"}},
		{"-only a cut analyzer", []string{"-only", "regcheck"}},
		{"-only the other cut analyzer", []string{"-only", "sgelimit"}},
		{"a go vet protocol flag", []string{"-V=full"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != 2 {
				t.Errorf("run(%v) = %d, want 2\nstderr: %s", tc.args, got, stderr.String())
			}
		})
	}
}

// writeModule lays out a throwaway module and chdirs into it for the test.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// TestExitCodes drives the driver end to end over tiny modules: 0 for a
// clean module, 1 for findings, 2 for an unresolvable pattern.
func TestExitCodes(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		writeModule(t, map[string]string{
			"lib/lib.go": "package lib\n\nfunc Add(a, b int) int { return a + b }\n",
		})
		var stdout, stderr bytes.Buffer
		if got := run([]string{"./..."}, &stdout, &stderr); got != 0 {
			t.Errorf("exit = %d, want 0\nstderr: %s", got, stderr.String())
		}
	})
	t.Run("findings", func(t *testing.T) {
		writeModule(t, map[string]string{
			"lib/lib.go": "package lib\n\nfunc Boom() { panic(\"no\") }\n",
		})
		var stdout, stderr bytes.Buffer
		if got := run([]string{"./..."}, &stdout, &stderr); got != 1 {
			t.Errorf("exit = %d, want 1\nstderr: %s", got, stderr.String())
		}
	})
	// A finding in a test file is reported at its _test.go position, in a
	// package's own test files and in its external test package alike, and
	// a directive there suppresses it. lockorder reads test files; the sim
	// stub gives it a Resource to track.
	const sim = "package sim\n\ntype Proc struct{}\n\ntype Resource struct{}\n\nfunc (r *Resource) Acquire(p *Proc) {}\n"
	const twice = "\n\nimport \"m/internal/sim\"\n\nfunc twice(r *sim.Resource, p *sim.Proc) {\n\tr.Acquire(p)\n%s\tr.Acquire(p)\n}\n"
	for _, pkg := range []string{"lib", "lib_test"} {
		for _, directive := range []string{"", "\t//pvfslint:ok lockorder the second Acquire is the misuse under test\n"} {
			t.Run(fmt.Sprintf("test file in package %s, directive %t", pkg, directive != ""), func(t *testing.T) {
				writeModule(t, map[string]string{
					"internal/sim/sim.go": sim,
					"lib/lib.go":          "package lib\n",
					"lib/lib_test.go":     "package " + pkg + fmt.Sprintf(twice, directive),
				})
				want := 1
				if directive != "" {
					want = 0
				}
				var stdout, stderr bytes.Buffer
				if got := run([]string{"./..."}, &stdout, &stderr); got != want {
					t.Errorf("exit = %d, want %d\nstderr: %s", got, want, stderr.String())
				}
				if pos := filepath.Join("lib", "lib_test.go") + ":7:2: r is acquired while already held"; want == 1 && !bytes.Contains(stderr.Bytes(), []byte(pos)) {
					t.Errorf("stderr lacks %q:\n%s", pos, stderr.String())
				}
			})
		}
	}
	t.Run("load error", func(t *testing.T) {
		writeModule(t, map[string]string{
			"lib/lib.go": "package lib\n",
		})
		var stdout, stderr bytes.Buffer
		if got := run([]string{"./nosuchdir"}, &stdout, &stderr); got != 2 {
			t.Errorf("exit = %d, want 2\nstderr: %s", got, stderr.String())
		}
	})
}

// TestStdoutModes checks the -json output mode: exactly one JSON array on
// stdout, and the human-readable findings still on stderr.
func TestStdoutModes(t *testing.T) {
	files := map[string]string{
		"lib/lib.go": "package lib\n\nfunc Boom() { panic(\"no\") }\n",
	}
	t.Run("json", func(t *testing.T) {
		writeModule(t, files)
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-json", "./..."}, &stdout, &stderr); got != 1 {
			t.Fatalf("exit = %d, want 1\nstderr: %s", got, stderr.String())
		}
		var out []jsonFinding
		if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
			t.Fatalf("stdout is not a JSON finding array: %v\n%s", err, stdout.String())
		}
		if len(out) == 0 || out[0].Analyzer != "nopanic" {
			t.Errorf("findings = %+v, want a nopanic finding", out)
		}
		if !bytes.Contains(stderr.Bytes(), []byte("nopanic")) {
			t.Errorf("human-readable finding missing from stderr:\n%s", stderr.String())
		}
	})
}

// TestHotpathAudits drives the audit ratchet through the standalone driver,
// Finish hook included: an unaudited effect fails naming root, chain and the
// effect's line; a directive there clears it for the root that reaches it;
// and once no root does, the directive itself is the finding.
func TestHotpathAudits(t *testing.T) {
	const effect = "func grow(s []int) []int {\n\treturn append(s, 1)\n}\n"
	const audited = "func grow(s []int) []int {\n\t//pvfslint:ok hotpath amortized growth\n\treturn append(s, 1)\n}\n"
	const root = "\n//pvfslint:hotpath\nfunc Hot(s []int) { grow(s) }\n"
	cases := []struct {
		name, src string
		exit      int
		stderr    string
	}{
		{"unaudited", effect + root, 1, `hot path lib.Hot: allocation "append (may grow)" in lib.grow at lib.go:4 (via lib.grow) — unaudited`},
		{"audited", audited + root, 0, ""},
		{"unreached", audited, 1, "lib.go:4:2: stale audit: no //pvfslint:hotpath root that budgets this effect reaches it any more"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			writeModule(t, map[string]string{"lib/lib.go": "package lib\n\n" + tc.src})
			var stdout, stderr bytes.Buffer
			if got := run([]string{"./..."}, &stdout, &stderr); got != tc.exit {
				t.Errorf("exit = %d, want %d", got, tc.exit)
			}
			if !bytes.Contains(stderr.Bytes(), []byte(tc.stderr)) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}
