package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pvfsib/internal/sim"
)

// TestNilTracerZeroAlloc pins the tracing-off contract: every span
// operation on a nil tracer is allocation-free, so instrumented hot
// paths cost nothing when tracing is disabled.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.NewRequest(0, "cn0", "listio-write")
		sp := tr.Start(1, root.Ctx(), "cn0", "pvfs.attempt", StageOther)
		sp.SetBytes(4096)
		sp.Annotate("segs=4")
		if sp.Recording() {
			t.Fatal("nil tracer reports Recording")
		}
		tr.Instant(2, sp.Ctx(), "cn0", "iod-abort", 0, func() string { return "reply lost" })
		sp.EndErr(2, nil)
		root.End(3)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer span path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestSpanTree checks parenting, request propagation, and error capture
// through a small hand-built tree.
func TestSpanTree(t *testing.T) {
	tr := NewTracer("cn0", "io1")
	root := tr.NewRequest(100, "cn0", "listio-write")
	child := tr.Start(110, root.Ctx(), "io1", "srv.dispatch", StageOther)
	leaf := tr.Start(120, child.Ctx(), "io1", "disk.write", StageDisk)
	leaf.EndErr(150, errors.New("media fault"))
	child.End(160)
	root.End(200)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Errorf("parent chain wrong: %v %v %v", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	for i, s := range spans {
		if s.Req != root.Req() {
			t.Errorf("span %d: req %d, want %d", i, s.Req, root.Req())
		}
		if !s.Ended {
			t.Errorf("span %d not ended", i)
		}
	}
	if spans[2].Err != "media fault" {
		t.Errorf("leaf error = %q, want media fault", spans[2].Err)
	}
	if d := spans[0].Dur(); d != 100 {
		t.Errorf("root duration = %d, want 100", d)
	}
	if got := tr.Requests(); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}
}

// TestDetachedStart: a Start with zero context records a root with no
// request ID, excluded from request accounting.
func TestDetachedStart(t *testing.T) {
	tr := NewTracer("io0")
	sp := tr.Start(5, 0, "io0", "disk.read", StageDisk)
	sp.End(9)
	if got := tr.Requests(); got != 0 {
		t.Errorf("detached span minted a request: %d", got)
	}
	if r := tr.Spans()[0]; r.Req != 0 || r.Parent != 0 {
		t.Errorf("detached span has req=%d parent=%d, want 0,0", r.Req, r.Parent)
	}
	p := tr.Profile()
	if p.Latency.Count != 0 {
		t.Errorf("detached root counted in request latency: %d", p.Latency.Count)
	}
}

// TestInstantIsZeroLengthSpan: an instant lands under the request it hit
// as an ended zero-length span carrying its bytes and detail, merges into
// Spans in (start, node, sequence) order, and adds no time to the profile.
func TestInstantIsZeroLengthSpan(t *testing.T) {
	tr := NewTracer("cn0", "io1")
	root := tr.NewRequest(100, "cn0", "listio-write")
	srv := tr.Start(120, root.Ctx(), "io1", "srv.dispatch", StageOther)
	tr.Instant(120, root.Ctx(), "cn0", "fallback-pack", 4096, func() string { return fmt.Sprintf("io%d gather failed %d times", 1, 2) })
	tr.Instant(130, 0, "io1", "iod-crash", 0, func() string { return "daemon down" })
	srv.End(150)
	root.End(200)

	spans := tr.Spans()
	var kinds []string
	for _, s := range spans {
		kinds = append(kinds, s.Kind)
	}
	// Equal start times break by registration order: cn0 before io1.
	want := []string{"listio-write", "fallback-pack", "srv.dispatch", "iod-crash"}
	if !slices.Equal(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	fb, crash := spans[1], spans[3]
	if !fb.Ended || fb.Dur() != 0 || fb.Req != root.Req() || fb.Parent != spans[0].ID ||
		fb.Bytes != 4096 || fb.Attrs != "io1 gather failed 2 times" {
		t.Errorf("request instant = %+v", fb)
	}
	if !crash.Ended || crash.Dur() != 0 || crash.Req != 0 || crash.Parent != 0 {
		t.Errorf("detached instant = %+v", crash)
	}
	p := tr.Profile()
	if p.TotalNs() != 100 || p.Latency.Count != 1 || p.Latency.Max != 100 {
		t.Errorf("instants moved the profile: total=%d latency=%+v", p.TotalNs(), p.Latency)
	}
}

// TestHistogramObserve checks counting, bounds, and the quantile upper
// bound (at most 2x true, clamped to the observed extremes).
func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{100, 200, 400, 800, 1600} {
		h.Observe(v)
	}
	if h.Count != 5 || h.Sum != 3100 || h.Min != 100 || h.Max != 1600 {
		t.Fatalf("count/sum/min/max = %d/%d/%d/%d", h.Count, h.Sum, h.Min, h.Max)
	}
	if got := h.Mean(); got != 620 {
		t.Errorf("mean = %d, want 620", got)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		if got < h.Min || got > h.Max {
			t.Errorf("quantile(%g) = %d, outside [%d,%d]", q, got, h.Min, h.Max)
		}
	}
	// The p0 bound must stay within 2x of the true minimum observation.
	if got := h.Quantile(0); got > 200 {
		t.Errorf("quantile(0) = %d, want <= 200 (2x of min)", got)
	}
	// Negative observations clamp to zero rather than corrupting Sum.
	var neg Histogram
	neg.Observe(-5)
	if neg.Sum != 0 || neg.Min != 0 || neg.Count != 1 {
		t.Errorf("negative observe: %+v", neg)
	}
}

// TestHistogramMerge: merging two histograms equals observing every value
// into one — buckets, bounds, and quantiles agree exactly.
func TestHistogramMerge(t *testing.T) {
	vals1 := []int64{10, 50, 900}
	vals2 := []int64{3, 7000, 128, 128}
	var a, b, all Histogram
	for _, v := range vals1 {
		a.Observe(v)
		all.Observe(v)
	}
	for _, v := range vals2 {
		b.Observe(v)
		all.Observe(v)
	}
	a.Merge(&b)
	if a != all {
		t.Errorf("merged histogram differs from direct observation:\n%+v\n%+v", a, all)
	}
	// Merging an empty histogram is a no-op.
	var empty Histogram
	a.Merge(&empty)
	a.Merge(nil)
	if a != all {
		t.Errorf("empty merge changed the histogram")
	}
}

// TestProfileSelfTime checks the per-stage self-time decomposition: a
// child's time is subtracted from its parent's stage, not double-counted.
func TestProfileSelfTime(t *testing.T) {
	tr := NewTracer("cn0")
	root := tr.NewRequest(0, "cn0", "listio-write") // other
	reg := tr.Start(10, root.Ctx(), "cn0", "ib.reg", StageReg)
	pack := tr.Start(15, reg.Ctx(), "cn0", "pvfs.pack", StagePack)
	pack.End(20)
	reg.End(30)
	root.End(100)

	p := tr.Profile()
	if got := p.Stage[StagePack].Ns; got != 5 {
		t.Errorf("pack self time = %d, want 5", got)
	}
	if got := p.Stage[StageReg].Ns; got != 15 {
		t.Errorf("reg self time = %d, want 15 (20 total - 5 child)", got)
	}
	if got := p.Stage[StageOther].Ns; got != 80 {
		t.Errorf("other self time = %d, want 80 (100 total - 20 child)", got)
	}
	if p.Latency.Count != 1 || p.Latency.Max != 100 {
		t.Errorf("request latency: %+v", p.Latency)
	}
	if got := p.TotalNs(); got != 100 {
		t.Errorf("total = %d, want 100", got)
	}
}

// TestProfileInflightSortedByNode: the in-flight gauges come out in node
// name order on every build, however the dispatch spans' nodes were
// registered and whatever order a map hands them over in. Nine nodes and
// many builds, so that no draw comes out sorted by chance every time.
func TestProfileInflightSortedByNode(t *testing.T) {
	var names []string
	for i := 8; i >= 0; i-- {
		names = append(names, fmt.Sprintf("io%d", i))
	}
	tr := NewTracer(names...)
	for i, n := range names {
		tr.Start(sim.Time(i), 0, n, dispatchKind, StageOther).End(sim.Time(i + 10))
	}
	for range 64 {
		p := tr.Profile()
		if len(p.Inflight) != len(names) {
			t.Fatalf("%d gauges, want %d", len(p.Inflight), len(names))
		}
		if !slices.IsSortedFunc(p.Inflight, func(a, b NodeGauge) int { return strings.Compare(a.Node, b.Node) }) {
			t.Fatalf("gauges not sorted by node: %v", p.Inflight)
		}
	}
}

// TestOpenCountsUnendedSpans: Open counts the spans not yet ended, and
// under sim.PoisonReleased a second End of one span fails the run.
func TestOpenCountsUnendedSpans(t *testing.T) {
	tr := NewTracer("cn0")
	root := tr.NewRequest(0, "cn0", "listio-write")
	sp := tr.Start(1, root.Ctx(), "cn0", "pvfs.attempt", StageOther)
	tr.Instant(2, sp.Ctx(), "cn0", "iod-abort", 0, func() string { return "reply lost" })
	if n := tr.Open(); n != 2 {
		t.Errorf("Open = %d with two spans open, want 2", n)
	}
	sp.EndErr(3, errors.New("timeout"))
	root.End(4)
	if n := tr.Open(); n != 0 {
		t.Errorf("Open = %d after every span ended, want 0", n)
	}
	defer func(was bool) { sim.PoisonReleased = was }(sim.PoisonReleased)
	sim.PoisonReleased = true
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "ended twice") {
			t.Errorf("a second End under poison: %v, want a failure", r)
		}
	}()
	sp.End(5)
}

// TestPerfettoSchema parses the export back and checks the Chrome
// trace-event contract: a displayTimeUnit, process-name metadata, and
// complete ("X") events with pid/tid/ts/dur on every span.
func TestPerfettoSchema(t *testing.T) {
	tr := NewTracer("cn0", "io1")
	root := tr.NewRequest(1000, "cn0", "listio-write")
	sp := tr.Start(1100, root.Ctx(), "io1", "srv.dispatch", StageOther)
	sp.SetBytes(64)
	sp.Annotate("segs=2")
	sp.End(1500)
	root.End(2000)

	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" {
		t.Error("missing displayTimeUnit")
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			meta++
		case "X":
			complete++
			for _, k := range []string{"name", "pid", "tid", "ts", "dur"} {
				if _, ok := ev[k]; !ok {
					t.Errorf("complete event missing %q: %v", k, ev)
				}
			}
		default:
			t.Errorf("unexpected phase %q", ph)
		}
	}
	if complete != 2 {
		t.Errorf("got %d complete events, want 2", complete)
	}
	if meta == 0 {
		t.Error("no process-name metadata events")
	}
}
