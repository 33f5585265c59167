package bench

import (
	"strings"
	"testing"
)

// TestParallelIdentical pins the scheduler's core invariant: a table is a
// function of (experiment, Short, Seed) only — the worker count changes
// wall-clock time, never a byte of output. Cells run on private engines and
// merge in canonical order, so every experiment's -parallel 1 run must match
// the golden bytes TestRegistryGolden checks the -parallel 8 run against —
// exactly, not approximately.
func TestParallelIdentical(t *testing.T) {
	want := loadGolden(t)
	serial := goldenOpts
	serial.Parallel = 1
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if got := e.Run(serial).JSON(); got != want[e.ID] {
				t.Errorf("-parallel 1 output differs from %s:\n%s", goldenPath, firstDiff(want[e.ID], got))
			}
		})
	}
}

// firstDiff returns the first differing line pair for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "want: " + al[i] + "\ngot:  " + bl[i]
		}
	}
	return "outputs have different lengths"
}

// TestCellPanicPropagates checks that a cell panic surfaces on the caller's
// goroutine with the cell's key at every pool width, and that a one-worker
// pool stops at the failure instead of running the remaining cells.
func TestCellPanicPropagates(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		ranAfter := false
		e := Experiment{ID: "x", sweep: func(RunOpts) []group {
			return each([]string{"ok", "boom", "ok2"},
				func(key string) int {
					switch key {
					case "boom":
						panic("cell exploded")
					case "ok2":
						ranAfter = parallel == 1
					}
					return 1
				},
				func(*Table, string, int) {})
		}}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallel=%d: expected panic", parallel)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, `cell "boom"`) {
					t.Errorf("parallel=%d: panic %v should name the cell", parallel, r)
				}
			}()
			e.Run(RunOpts{Parallel: parallel})
		}()
		if ranAfter {
			t.Error("parallel=1: a cell ran after the pool had recorded a panic")
		}
	}
}
