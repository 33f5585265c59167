package pvfs

import (
	"testing"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// TestRetrySpansAreSiblings runs the fault storm with tracing on and
// checks the retry shape in the span tree: when a chunk RPC is re-issued
// after a WR error or timeout, each attempt records its own
// "pvfs.attempt" span, and the attempts sit side by side under the same
// parent list-operation span of the same request.
func TestRetrySpansAreSiblings(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = stormPlan(7)
	c := NewCluster(sim.NewEngine(), cfg, 4, 4)
	tr := c.EnableSpans()
	stormWorkload(t, c)

	if s := c.Snapshot(); s.Retries == 0 {
		t.Fatal("storm produced no retries; sibling shape not exercised")
	}

	// Group attempt spans by (request, parent).
	type key struct {
		req    trace.ReqID
		parent trace.SpanID
	}
	groups := make(map[key]int)
	for _, s := range tr.Spans() {
		if s.Kind != "pvfs.attempt" {
			continue
		}
		if !s.Ended {
			t.Errorf("attempt span %d never ended", s.ID)
		}
		if s.Parent == 0 || s.Req == 0 {
			t.Errorf("attempt span %d detached: parent=%d req=%d", s.ID, s.Parent, s.Req)
			continue
		}
		groups[key{s.Req, s.Parent}]++
	}
	if len(groups) == 0 {
		t.Fatal("no pvfs.attempt spans recorded")
	}
	retried := 0
	for _, n := range groups {
		if n > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("retries happened but no request shows sibling attempt spans")
	}

	// The failed attempts must carry the error that killed them.
	var failed int
	for _, s := range tr.Spans() {
		if s.Kind == "pvfs.attempt" && s.Err != "" {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no attempt span recorded an error despite injected faults")
	}
}

// TestSpansDisabledByDefault: a cluster without EnableSpans has no tracer
// attached and records nothing.
func TestSpansDisabledByDefault(t *testing.T) {
	c := NewCluster(sim.NewEngine(), DefaultConfig(), 2, 2)
	if c.Spans != nil {
		t.Fatal("tracer attached without EnableSpans")
	}
	app(t, c, func(p *sim.Proc) {
		fh := c.Clients[0].Open(p, "quiet")
		addr, _ := fill(c.Clients[0], 4096, 1)
		sim.Must(fh.Write(p, addr, 4096, 0, OpOptions{}))
	})
	if n := c.Spans.Len(); n != 0 {
		t.Errorf("%d spans recorded with tracing off", n)
	}
}

// TestRemoveKeepsTraceContext: a Remove issued under a request hands the
// caller's trace context to its per-server children and to the manager
// and daemons that serve it, so every span it causes — client sends, wire
// hops, server queueing, the replies — is accounted to that request
// rather than recorded as a detached root.
func TestRemoveKeepsTraceContext(t *testing.T) {
	c := NewCluster(sim.NewEngine(), DefaultConfig(), 4, 1)
	cl := c.Clients[0]
	app(t, c, func(p *sim.Proc) {
		fh := cl.Open(p, "doomed")
		addr, _ := fill(cl, 256<<10, 1)
		sim.Must(fh.Write(p, addr, 256<<10, 0, OpOptions{}))
	})
	tr := c.EnableSpans()
	var req trace.ReqID
	app(t, c, func(p *sim.Proc) {
		root := tr.NewRequest(p.Now(), cl.Node().Name, "app.remove")
		req = root.Req()
		p.SetTraceCtx(uint64(root.Ctx()))
		cl.Remove(p, "doomed")
		p.SetTraceCtx(0)
		root.End(p.Now())
	})
	nodes := map[string]bool{}
	for _, s := range tr.Spans() {
		if s.Req != req {
			t.Errorf("span %s on %s is detached from the Remove's request (req=%d parent=%d)",
				s.Kind, s.Node, s.Req, s.Parent)
		}
		if !s.Ended {
			t.Errorf("span %s on %s never ended", s.Kind, s.Node)
		}
		nodes[s.Node] = true
	}
	// The manager shares io0's node; every daemon must have taken part.
	for _, srv := range c.Servers {
		if !nodes[srv.node.Name] {
			t.Errorf("no span recorded on %s: the per-server remove did not run traced", srv.node.Name)
		}
	}
}

// TestFaultInstantsRideSpans: under the storm each fault-plane instant is
// an ended zero-length span on the span plane — under the request it hit
// when there is one — and none of them moves the time accounting: the
// profile total and the summed request-root durations equal the values
// computed with those spans filtered out.
func TestFaultInstantsRideSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = stormPlan(7)
	c := NewCluster(sim.NewEngine(), cfg, 4, 4)
	tr := c.EnableSpans()
	stormWorkload(t, c)

	instants := map[string]bool{
		"fallback-pack": true, "iod-crash": true, "iod-restart": true,
		"iod-abort": true, "iod-register-fail": true,
	}
	seen := map[string]int{}
	spans := tr.Spans()
	for _, s := range spans {
		if !instants[s.Kind] {
			continue
		}
		seen[s.Kind]++
		if !s.Ended || s.Start != s.End || s.Stage != trace.StageOther {
			t.Errorf("instant %s on %s is not an ended zero-length span: %+v", s.Kind, s.Node, s)
		}
		if s.Attrs == "" {
			t.Errorf("instant %s on %s carries no detail", s.Kind, s.Node)
		}
		switch s.Kind {
		case "fallback-pack", "iod-abort":
			if s.Req == 0 || s.Parent == 0 {
				t.Errorf("instant %s on %s is detached from the request it hit", s.Kind, s.Node)
			}
		case "iod-crash", "iod-restart":
			if s.Req != 0 {
				t.Errorf("instant %s on %s claims request %d; no request caused it", s.Kind, s.Node, s.Req)
			}
		}
	}
	// The storm's cut never covers io2's control path, so its restart
	// re-registers; TestRegisterFailInstant reaches iod-register-fail.
	for _, kind := range []string{"fallback-pack", "iod-crash", "iod-restart", "iod-abort"} {
		if seen[kind] == 0 {
			t.Errorf("storm recorded no %q instant (seen: %v)", kind, seen)
		}
	}
	snap := c.Snapshot()
	if int64(seen["fallback-pack"]) != snap.Fallbacks || int64(seen["iod-abort"]) != snap.ServerAborts ||
		int64(seen["iod-crash"]) != snap.Crashes || int64(seen["iod-restart"]) != snap.Restarts {
		t.Errorf("instants %v disagree with counters %v", seen, snap)
	}

	// Time accounting recomputed over the table with the instants filtered
	// out: they are zero-length leaves, so no parent's self time, no stage
	// total and no request root may differ from what the tracer reports.
	childNs := map[trace.SpanID]int64{}
	for _, s := range spans {
		if !instants[s.Kind] && s.Parent != 0 {
			childNs[s.Parent] += s.Dur()
		}
	}
	var total, roots int64
	for _, s := range spans {
		if instants[s.Kind] {
			continue
		}
		total += max(0, s.Dur()-childNs[s.ID])
		if s.Parent == 0 && s.Req != 0 {
			roots += s.Dur()
		}
	}
	prof := tr.Profile()
	if got := prof.TotalNs(); got != total {
		t.Errorf("profile total %d ns, %d ns with instants filtered out", got, total)
	}
	if got := prof.Latency.Sum; got != roots {
		t.Errorf("request roots sum to %d ns, %d ns with instants filtered out", got, roots)
	}
}

// TestRegisterFailInstant: a partition between a restarting daemon and the
// manager's node eats the re-registration, and the daemon says so with a
// detached instant carrying the error.
func TestRegisterFailInstant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &fault.Plan{
		Seed:    1,
		Crashes: []fault.Crash{{Server: 2, At: 100 * time.Microsecond, Down: 200 * time.Microsecond}},
		Cuts:    []fault.Cut{{A: 2, B: 0, At: 250 * time.Microsecond, Dur: 200 * time.Microsecond}},
	}
	c := NewCluster(sim.NewEngine(), cfg, 4, 1)
	tr := c.EnableSpans()
	app(t, c, func(p *sim.Proc) { p.Sleep(sim.Duration(time.Millisecond)) })

	var fails []trace.SpanRec
	for _, s := range tr.Spans() {
		if s.Kind == "iod-register-fail" {
			fails = append(fails, s)
		}
	}
	if len(fails) != 1 {
		t.Fatalf("got %d iod-register-fail instants, want 1", len(fails))
	}
	if s := fails[0]; s.Node != "io2" || !s.Ended || s.Dur() != 0 || s.Req != 0 || s.Attrs == "" {
		t.Errorf("register-fail instant = %+v", s)
	}
	if n := c.Snapshot().IodRegistrations; n != 0 {
		t.Errorf("IodRegistrations = %d after a failed re-registration, want 0", n)
	}
}
