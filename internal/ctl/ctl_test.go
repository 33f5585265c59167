package ctl

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/transcript.golden from this run")

// run executes a script and returns the output.
func run(t *testing.T, script string) string {
	t.Helper()
	var out bytes.Buffer
	if err := New(&out).Run(strings.NewReader(script)); err != nil {
		t.Fatalf("script failed: %v\noutput so far:\n%s", err, out.String())
	}
	return out.String()
}

// runErr executes a script expecting failure.
func runErr(t *testing.T, script string) error {
	t.Helper()
	var out bytes.Buffer
	err := New(&out).Run(strings.NewReader(script))
	if err == nil {
		t.Fatalf("script succeeded, expected error:\n%s", out.String())
	}
	return err
}

func TestScriptWriteReadVerify(t *testing.T) {
	out := run(t, `
# basic round trip with verification
cluster servers=4 clients=2
open data
writelist data count=64 size=512 fstride=2048 seed=7
readlist data count=64 size=512 fstride=2048 verify=7 client=1
stat data
stats
time
`)
	for _, want := range []string{
		"cluster: 4 servers, 2 clients",
		"writelist data: 64 x 512B",
		"readlist data: 64 x 512B",
		"data: ", // stat output
		"req#=",
		"t=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptVerifyFailure(t *testing.T) {
	err := runErr(t, `
cluster servers=2 clients=1
write data len=1024 seed=3
read data len=1024 verify=4
`)
	if !strings.Contains(err.Error(), "verification failed") {
		t.Errorf("err = %v, want verification failure", err)
	}
}

func TestScriptContigAndRemove(t *testing.T) {
	out := run(t, `
cluster servers=2 clients=1 stripe=16384
open f stripe=4096
write f len=65536 off=0 seed=1
sync f
stat f
remove f
open f
stat f
`)
	if !strings.Contains(out, "opened f (stripe 4096)") {
		t.Errorf("per-file stripe missing:\n%s", out)
	}
	if !strings.Contains(out, "f: 65536 bytes") {
		t.Errorf("stat before remove wrong:\n%s", out)
	}
	if !strings.Contains(out, "f: 0 bytes") {
		t.Errorf("stat after remove should be 0:\n%s", out)
	}
}

func TestScriptTrace(t *testing.T) {
	out := run(t, `
cluster servers=2 clients=1
trace on cap=128
writelist data count=32 size=256 fstride=1024
trace dump last=3
`)
	if !strings.Contains(out, "span tracing on") {
		t.Errorf("'trace on' did not report the span tracer:\n%s", out)
	}
	rows := regexp.MustCompile(`(?m)^ +[0-9.]+us (cn|io)[0-9] .*$`).FindAllString(out, -1)
	if len(rows) != 3 {
		t.Fatalf("trace dump last=3 printed %d span rows:\n%s", len(rows), out)
	}
	// Completion order: the write's chunk attempt closes with the last
	// hop it waited on, so it is among the rows that finished last.
	attempt := regexp.MustCompile(`^ +[0-9.]+us cn0 +pvfs\.attempt +[0-9]+B io[01] attempt=1 pack=(true|false)$`)
	if !slices.ContainsFunc(rows, attempt.MatchString) {
		t.Errorf("trace dump last=3 shows no pvfs.attempt row:\n%s", out)
	}
}

// TestScriptTraceDumpFile: 'trace dump file=' goes through the same
// file-or-session writer as 'trace export' and 'metrics dump'.
func TestScriptTraceDumpFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.txt")
	out := run(t, `
cluster servers=2 clients=1
trace spans
write data len=65536 seed=3
trace dump last=5 file=`+path+`
`)
	if !strings.Contains(out, "dumped 5 spans to "+path) {
		t.Errorf("dump report missing:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 5 {
		t.Errorf("dump file holds %d rows, want 5:\n%s", n, b)
	}
}

func TestScriptStreamWire(t *testing.T) {
	out := run(t, `
cluster servers=2 clients=1 wire=stream
write data len=262144 seed=9
read data len=262144 verify=9
`)
	if !strings.Contains(out, "wire stream") {
		t.Errorf("stream wire not reported:\n%s", out)
	}
}

func TestScriptMethodsAndSieve(t *testing.T) {
	run(t, `
cluster servers=2 clients=1
writelist data count=16 size=4096 fstride=8192 method=gather sieve=never seed=2
readlist data count=16 size=4096 fstride=8192 method=pack sieve=always verify=2
`)
}

func TestScriptErrors(t *testing.T) {
	cases := []string{
		"open f",                                     // no cluster
		"cluster servers=2\ncluster",                 // duplicate cluster
		"cluster servers=2\nbogus",                   // unknown command
		"cluster servers=2\nstat",                    // missing file name
		"cluster servers=2\nwrite f len=abc",         // bad number
		"cluster servers=2\nwrite f client=9",        // client range
		"cluster servers=2\ntrace dump",              // trace before on
		"cluster servers=2\nwritelist f method=warp", // bad method
	}
	for _, script := range cases {
		if err := runErr(t, script); err == nil {
			t.Errorf("script %q should fail", script)
		}
	}
}

func TestScriptEchoAndComments(t *testing.T) {
	out := run(t, `
# comment
echo hello world

cluster servers=1 clients=1
`)
	if !strings.Contains(out, "hello world") {
		t.Errorf("echo missing:\n%s", out)
	}
}

func TestScriptFaultPlane(t *testing.T) {
	out := run(t, `
cluster servers=4 clients=2
fault list
fault inject wr=0.05 cut=4:1:200:400 crash=2:300:600 seed=7
fault list
open data
writelist data count=64 size=4096 fstride=8192 seed=9
sync data
readlist data count=64 size=4096 fstride=8192 verify=9
fault list
stats
fault clear
fault list
`)
	for _, want := range []string{
		"no faults attached",
		"faults attached: wr=0.05, cut 4<->1",
		"crash io2",
		"seed=7",
		"injected: wr-err=",
		"faults cleared",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptFaultErrors(t *testing.T) {
	// The manager lives on server 0: crashing it must be rejected, and an
	// inject line that sets nothing is a script bug worth failing loudly.
	for _, script := range []string{
		"cluster servers=2 clients=1\nfault inject crash=0:10:10",
		"cluster servers=2 clients=1\nfault inject",
		"cluster servers=2 clients=1\nfault inject wr=1.5",
		"fault list",
	} {
		if err := runErr(t, script); err == nil {
			t.Errorf("script %q should have failed", script)
		}
	}
}

func TestScriptCachePlane(t *testing.T) {
	out := run(t, `
cluster servers=4 clients=2
cache on pages=16 pagesize=8192 highwater=8 readahead=4
writelist data count=64 size=512 fstride=2048 seed=7
readlist data count=64 size=512 fstride=2048 verify=7
cache stats
cache flush
sync data
readlist data count=64 size=512 fstride=2048 verify=7 client=1
stat data
cache off
readlist data count=64 size=512 fstride=2048 verify=7
`)
	for _, want := range []string{
		"caching on: 16 x 8192B pages, highwater 8, readahead 4, writethrough false",
		"cache: hit#=",
		"lease: req#=",
		"data@cn0:",
		"caches flushed",
		"caching off",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptCacheWriteThrough(t *testing.T) {
	out := run(t, `
cluster servers=2 clients=1
cache on pages=8 pagesize=4096 wt=1
write data len=4096 seed=3
read data len=4096 verify=3
cache off
read data len=4096 verify=3
`)
	if !strings.Contains(out, "writethrough true") {
		t.Errorf("output missing write-through banner:\n%s", out)
	}
}

func TestScriptMetricsPlane(t *testing.T) {
	out := run(t, `
cluster servers=2 clients=1
metrics on interval=100 depth=1024
writelist data count=64 size=4096 fstride=8192 seed=5
sync data
metrics rate last=4
metrics rate name=net.tx.bytes
metrics dump format=prom
metrics top
metrics off
metrics off
`)
	for _, want := range []string{
		"metrics on: interval 100us, depth 1024",
		"net.tx.bytes",
		"disk.busy",
		"pvfs_net_tx_bytes_total",
		"pvfs_disk_queue{node=", // gauge exposition with node labels
		"engine: shards=1",
		"shard 0: events=",
		"metrics off",
		"metrics already off",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScriptMetricsDumpFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mx.json")
	out := run(t, `
cluster servers=2 clients=1
metrics on
writelist data count=16 size=512 fstride=2048
metrics dump file=`+path+`
`)
	if !strings.Contains(out, "dumped ") || !strings.Contains(out, path) {
		t.Errorf("dump-to-file banner missing:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"interval_ns"`, `"series"`, `"net.tx.bytes"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("dump file missing %q:\n%s", want, b)
		}
	}
}

func TestScriptMetricsErrors(t *testing.T) {
	for _, tc := range []struct{ script, want string }{
		{"metrics on", "no cluster"},
		{"cluster servers=2 clients=1\nmetrics dump", "not enabled"},
		{"cluster servers=2 clients=1\nmetrics rate", "not enabled"},
		{"cluster servers=2 clients=1\nmetrics on\nmetrics dump format=xml", "unknown format"},
		{"cluster servers=2 clients=1\nmetrics on interval=0", "must be positive"},
		{"cluster servers=2 clients=1\nmetrics on\nmetrics rate name=nope", "no series named"},
		{"cluster servers=2 clients=1\nmetrics purge", "metrics wants"},
	} {
		err := runErr(t, tc.script)
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("script %q: err = %v, want %q", tc.script, err, tc.want)
		}
	}
}

func TestScriptCacheErrors(t *testing.T) {
	for _, tc := range []struct{ script, want string }{
		{"cache stats", "no cluster"},
		{"cluster servers=2 clients=1\ncache purge", "cache wants"},
		{"cluster servers=2 clients=1\ncache on pages=x", "bad pages"},
	} {
		err := runErr(t, tc.script)
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("script %q: err = %v, want %q", tc.script, err, tc.want)
		}
	}
}

// TestTranscriptGolden runs testdata/transcript.pvfs — one session that
// attaches the page cache, a fault storm, the metrics registry and the
// span tracer, runs list, contiguous and cached I/O under them, and prints
// from every plane — and compares the whole output with
// testdata/transcript.golden. `go test ./internal/ctl -run
// TestTranscriptGolden -update` rewrites the golden after a deliberate
// output change.
func TestTranscriptGolden(t *testing.T) {
	const golden = "testdata/transcript.golden"
	script, err := os.ReadFile("testdata/transcript.pvfs")
	if err != nil {
		t.Fatal(err)
	}
	got := run(t, string(script))
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("transcript differs from %s:\n%s", golden, got)
	}
}
