package main

import (
	"bytes"
	"encoding/json"
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
		{"-only the cut lock analyzer", []string{"-only", "lockorder"}},
		{"-only the cut hot-path analyzer", []string{"-only", "hotpath"}},
		{"-only an analyzer cut for the tests that catch its rows", []string{"-only", "lifetime,errflow,detcheck"}},
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
