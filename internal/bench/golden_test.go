package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/short.golden.json from this run")

// goldenPath holds every Registry table at goldenOpts, one JSON object per
// experiment in Registry order — byte for byte what
// `pvfsbench -short -seed 1 -format json -timings=false -run all` prints.
const goldenPath = "testdata/short.golden.json"

var goldenOpts = RunOpts{Short: true, Seed: 1, Parallel: 8}

// shortRun runs every experiment at goldenOpts, in Registry order, once per
// test binary: the golden comparison and the shape tests read its tables,
// TestHostCostFile what each experiment cost the host. It is one pass so that
// the costs are those of a fresh `-run all` (and so that the suite pays for
// one pass, not two); it must not overlap with a test that runs cells of its
// own in parallel, which holds as long as no top-level test that reaches it
// calls t.Parallel.
var shortRun = sync.OnceValue(func() (r struct {
	tables map[string]*Table
	work   []HostWork
}) {
	r.tables = make(map[string]*Table, len(Registry))
	r.work = costOf(Registry, goldenOpts, func(t *Table) { r.tables[t.ID] = t })
	return r
})

// shortTable returns experiment id's table at goldenOpts.
func shortTable(t testing.TB, id string) *Table {
	t.Helper()
	tbl, ok := shortRun().tables[id]
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	return tbl
}

// loadGolden returns the committed golden tables as JSON text keyed by id.
func loadGolden(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	dec := json.NewDecoder(f)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); errors.Is(err, io.EOF) {
			return want
		} else if err != nil {
			t.Fatal(err)
		}
		var hdr struct{ ID string }
		if err := json.Unmarshal(raw, &hdr); err != nil {
			t.Fatal(err)
		}
		want[hdr.ID] = string(raw)
	}
}

// TestRegistryGolden pins every experiment's short-mode output to the
// committed bytes: a refactor of the harness either reproduces all 27
// tables exactly or fails here. `go test -run TestRegistryGolden -update`
// regenerates the file after a deliberate change.
func TestRegistryGolden(t *testing.T) {
	if *update {
		var b strings.Builder
		for _, e := range Registry {
			b.WriteString(shortTable(t, e.ID).JSON())
			b.WriteByte('\n')
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadGolden(t)
	if len(want) != len(Registry) {
		t.Errorf("golden holds %d tables, Registry %d", len(want), len(Registry))
	}
	for _, e := range Registry {
		if got := shortTable(t, e.ID).JSON(); got != want[e.ID] {
			t.Errorf("%s differs from %s:\n%s", e.ID, goldenPath, firstDiff(want[e.ID], got))
		}
	}
}
