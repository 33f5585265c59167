package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"pvfsib/internal/metrics"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/trace"
)

// setupReps is how many set-ups setup_s is the median of: that of the
// cluster a run measures and the ones it repeats afterwards.
const setupReps = 5

// overheadDur is the least host time each side of an observation-overhead
// ratio is timed for: a pass of a traced run goes on cycling past the virt
// window until it has run this long, so that a window of 60 ms is not
// compared with another after one reading of each.
const overheadDur = 3 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Not part of the last line; printed above it.
	mismatch int64
	ops      int64 // timed operations per cycle
	payload  int64 // payload bytes in the virt window
	cycles   int
	problems []string
}

// observe selects what is attached to the cluster after set-up.
type observe int

const (
	observeNothing observe = iota
	observeSpans
	observeMetrics
)

// pass is one measured cluster: set up, optionally instrumented, cycled.
type pass struct {
	b      *bench
	cycles []hostCost
	opsPer int64 // timed operations per cycle
	setup  hostCost
	// before and after are the cumulative counters around the virt
	// window; tracer and registry are what observed the cycles, detached
	// again before the final read-back.
	before, after counts
	tracer        *trace.Tracer
	registry      *metrics.Registry
}

// setUp builds a cluster and runs the workload's set-up on it.
func setUp(wl *workload, seed int64, spans *hostSpans) (b *bench, cycle func(k int), cost hostCost) {
	runtime.GC()
	sp := spans.start("setup")
	cost = measure(func() {
		bs := spans.start("build")
		b = newBench(seed, pvfs.DefaultConfig(), spans)
		bs.end()
		cycle = wl.build(b)
	})
	sp.end()
	return b, cycle, cost
}

// runPass sets the workload up, attaches what obs asks for and runs cycles
// until stop says so. stop sees the costs of the cycles done and lets at
// least the virt window run; window, if not nil, is called at the window's
// end, when the observers hold the window's cycles and nothing else.
func runPass(wl *workload, seed int64, obs observe, spans *hostSpans, stop func(done []hostCost) bool, window func(ps *pass)) *pass {
	ps := &pass{}
	var cycle func(k int)
	ps.b, cycle, ps.setup = setUp(wl, seed, spans)
	b := ps.b
	base := b.settle()
	switch obs {
	case observeSpans:
		ps.tracer = b.c.EnableSpans()
	case observeMetrics:
		ps.registry = b.c.EnableMetrics(metrics.Config{})
	}
	runtime.GC()
	ps.before = gatherCounts(b)
	for k := 0; ; k++ {
		b.inWindow = k < wl.virtCycles
		if k == wl.virtCycles {
			ps.after = gatherCounts(b)
			if window != nil {
				window(ps)
			}
		}
		if stop(ps.cycles) {
			break
		}
		before := b.attempted
		sp := spans.start("cycle")
		ps.cycles = append(ps.cycles, measure(func() { cycle(k) }))
		sp.end()
		if n := b.attempted - before; k == 0 {
			ps.opsPer = n
		} else if n != ps.opsPer {
			b.problem("cycle %d issued %d operations, cycle 0 issued %d", k, n, ps.opsPer)
		}
	}
	b.c.DisableSpans()
	b.c.DisableMetrics()
	sp := spans.start("final-verify")
	b.verifyAll()
	b.checkQuiescent(base)
	sp.end()
	return ps
}

// release stops the pass's cluster and drops everything that keeps it and
// its observers reachable.
func (ps *pass) release() {
	ps.b.close()
	ps.b, ps.tracer, ps.registry = nil, nil, nil
}

// untilSeconds stops after at least min cycles once the next cycle would
// overshoot the budget by more than half a cycle.
func untilSeconds(min int, seconds float64) func(done []hostCost) bool {
	//pvfslint:ok detcheck the run length is a host-clock budget by definition; it never feeds the virtual timeline
	start := time.Now()
	return func(done []hostCost) bool {
		if len(done) < min {
			return false
		}
		//pvfslint:ok detcheck the run length is a host-clock budget by definition; it never feeds the virtual timeline
		elapsed := time.Since(start).Seconds()
		return elapsed+0.5*median(walls(done)) > seconds
	}
}

func walls(cs []hostCost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.wall.Seconds()
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(ps *pass) *result {
	b := ps.b
	sorted := append([]int64(nil), b.opNs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) < minTimedOps {
		b.problem("only %d timed operations in the virt window, need %d", len(sorted), minTimedOps)
	}
	var mallocs, bytes []float64
	for _, c := range ps.cycles {
		mallocs = append(mallocs, float64(c.mallocs))
		bytes = append(bytes, float64(c.bytes))
	}
	ops := float64(ps.opsPer)
	r := &result{
		Attempted: b.attempted,
		Failed:    b.failed,
		mismatch:  b.mismatch,
		ops:       ps.opsPer,
		payload:   b.payload,
		cycles:    len(ps.cycles),
		problems:  b.problems,
		Metrics: map[string]metric{
			"virt_mbps":            {float64(b.payload) / MB / (float64(b.sectNs) / 1e9), "MB/s"},
			"virt_op_ms_p50":       {float64(percentile(sorted, 0.50)) / 1e6, "ms"},
			"virt_op_ms_p90":       {float64(percentile(sorted, 0.90)) / 1e6, "ms"},
			"host_wall_s":          {median(walls(ps.cycles)), "s"},
			"host_mallocs_per_op":  {median(mallocs) / ops, "count"},
			"host_alloc_kb_per_op": {median(bytes) / 1024 / ops, "kB"},
		},
	}
	if b.mismatch != 0 {
		r.Failed++
		r.problems = append(r.problems, fmt.Sprintf("%d bytes of the contiguous read-backs differ from the reference images", b.mismatch))
	}
	r.Correct = r.Failed == 0
	return r
}

// runEndToEnd is one `--trace 0` run: tracing off, cycles for the given
// number of seconds.
func runEndToEnd(wl *workload, seed int64, seconds float64) *result {
	ps := runPass(wl, seed, observeNothing, nil, untilSeconds(wl.virtCycles, seconds), nil)
	r := endToEnd(ps)
	ps.release()
	// The repeated set-ups come after the cycles, so that their garbage
	// does not disturb them, and each starts with every free page back at
	// the operating system: of the states a used heap can be in, the one
	// that repeats.
	setups := []hostCost{ps.setup}
	for len(setups) < setupReps {
		debug.FreeOSMemory()
		b, _, cost := setUp(wl, seed, nil)
		b.close()
		setups = append(setups, cost)
	}
	r.Metrics["setup_s"] = metric{median(walls(setups)), "s"}
	return r
}

// runTraced is one `--trace 1` run. The workload runs four times on fresh
// clusters: over the virt window under the harness's host spans (which also
// warms the heap, so that the other three meet the same allocator), then
// untraced, with the span tracer and with the metrics registry, each for the
// window and on until overheadDur. The window gives the virtual-side layer
// numbers, the medians of the cycles' host times what each kind of
// observation costs; the time left of the budget goes to the layer kernels.
func runTraced(wl *workload, seed int64, seconds float64, outDir string) (*result, error) {
	//pvfslint:ok detcheck the run length is a host-clock budget by definition; it never feeds the virtual timeline
	start := time.Now()
	spans := newHostSpans(wl.name)
	// Each pass's cluster is released before the next is built.
	warm := runPass(wl, seed, observeNothing, spans, func(done []hostCost) bool { return len(done) >= wl.virtCycles }, nil)
	spans.finish()
	r := endToEnd(warm)
	r.Metrics = map[string]metric{}
	warm.release()
	var plain float64
	for _, obs := range []observe{observeNothing, observeSpans, observeMetrics} {
		ps := runPass(wl, seed, obs, nil, untilSeconds(wl.virtCycles, overheadDur.Seconds()), func(ps *pass) {
			switch obs {
			case observeSpans:
				countMetrics(r.Metrics, ps)
			case observeMetrics:
				gaugeMetrics(r.Metrics, ps)
			}
		})
		r.Attempted += ps.b.attempted
		r.Failed += ps.b.failed + min(ps.b.mismatch, 1)
		r.problems = append(r.problems, ps.b.problems...)
		cycle := median(walls(ps.cycles))
		switch obs {
		case observeNothing:
			plain = cycle
			events := (ps.after["sim.events"] - ps.before["sim.events"]) / float64(wl.virtCycles)
			r.Metrics["sim.host_ns_per_event"] = metric{plain * 1e9 / events, "ns"}
		case observeSpans:
			r.Metrics["trace.host_overhead_pct"] = metric{(cycle/plain - 1) * 100, "%"}
		case observeMetrics:
			r.Metrics["metrics.host_overhead_pct"] = metric{(cycle/plain - 1) * 100, "%"}
		}
		ps.release()
	}
	if err := spans.check(); err != nil {
		r.Failed++
		r.problems = append(r.problems, err.Error())
	}
	if err := spans.write(outDir, wl.name); err != nil {
		return nil, err
	}
	harnessMetrics(r.Metrics, spans)

	//pvfslint:ok detcheck the run length is a host-clock budget by definition; it never feeds the virtual timeline
	left := seconds - time.Since(start).Seconds()
	per := time.Duration(left / float64(len(kernels)+1) * float64(time.Second))
	kernelMetrics(r.Metrics, max(per, minKernelDur))
	r.Correct = r.Failed == 0
	return r, nil
}
