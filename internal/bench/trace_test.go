package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"pvfsib/internal/mpiio"
	"pvfsib/internal/trace"
)

// TestTraceRunDeterministic: the same (workload, seed) pair must export a
// byte-identical Perfetto trace — span IDs, ordering, timestamps, and
// attributes all reproduce.
func TestTraceRunDeterministic(t *testing.T) {
	export := func() []byte {
		tr := TraceRun(true)
		var buf bytes.Buffer
		if err := tr.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// traceGoldenPath holds the sha256 of TraceRun(true)'s Perfetto export and
// of its breakdown profile JSON — what `pvfsbench -short -trace T.json`
// writes to T.json and T.json.breakdown.json.
const traceGoldenPath = "testdata/trace.golden.sha256"

// TestTraceRunGolden pins the traced breakdown run to committed bytes, so
// a change to the span plane either reproduces both files exactly or fails
// here. `go test -run TestTraceRunGolden -update` regenerates the hashes
// after a deliberate change.
func TestTraceRunGolden(t *testing.T) {
	tr := TraceRun(true)
	var perfetto, breakdown bytes.Buffer
	if err := tr.WritePerfetto(&perfetto); err != nil {
		t.Fatal(err)
	}
	if err := tr.Profile().WriteJSON(&breakdown); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x  perfetto\n%x  breakdown\n",
		sha256.Sum256(perfetto.Bytes()), sha256.Sum256(breakdown.Bytes()))
	if *update {
		if err := os.WriteFile(traceGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("traced run differs from %s:\ngot:\n%swant:\n%s", traceGoldenPath, got, want)
	}
}

// TestBreakdownCellSpans sanity-checks the traced workload behind the
// breakdown experiment: every rank's write and read mints a request, every
// span closes, parents resolve, and the wire and disk stages both show up
// in the decomposition.
func TestBreakdownCellSpans(t *testing.T) {
	tr, elapsed := breakdownCell(mpiio.ListIOADS, 16)
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := make(map[trace.SpanID]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	for i := range spans {
		s := &spans[i]
		if !s.Ended {
			t.Errorf("span %d (%s on %s) never ended", s.ID, s.Kind, s.Node)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts: [%v,%v]", s.ID, s.Start, s.End)
		}
		if s.Parent != 0 {
			pi, ok := byID[s.Parent]
			if !ok {
				t.Errorf("span %d parent %d unknown", s.ID, s.Parent)
			} else if spans[pi].Req != s.Req {
				t.Errorf("span %d crosses requests: req %d under parent req %d",
					s.ID, s.Req, spans[pi].Req)
			}
		}
	}
	// 4 ranks, one write pass and one read pass each.
	prof := tr.Profile()
	if prof.Latency.Count != 8 {
		t.Errorf("request count = %d, want 8", prof.Latency.Count)
	}
	if prof.Stage[trace.StageWire].Ns == 0 {
		t.Error("wire stage absent from decomposition")
	}
	if prof.Stage[trace.StageDisk].Ns == 0 {
		t.Error("disk stage absent from decomposition (cache drop not effective?)")
	}
	if prof.MaxInflight() < 2 {
		t.Errorf("max inflight = %d, want >= 2 with 4 concurrent ranks", prof.MaxInflight())
	}
}
