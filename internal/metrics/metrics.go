// Package metrics is a deterministic, virtual-time metrics plane:
// counters, gauges, and busy-time series sampled on the engine clock into
// fixed per-interval ring buffers.
//
// Three properties shape the design:
//
//   - Zero cost when disabled. Instrument handles (Counter, Gauge, Busy)
//     are value types whose zero value is a no-op sink: every method
//     checks one pointer and returns. Layers keep handles unconditionally
//     and never branch on "is metrics on".
//
//   - Zero timeline perturbation when enabled. There is no sampler
//     process and no timer events: every observation is bucketed on write
//     (bucket = virtual time / interval), so attaching a registry never
//     schedules an event, never consumes a group sequence number, and
//     therefore never changes what the simulation does — only what it
//     records. Updates are allocation-free in steady state.
//
//   - Byte-identical at any shard count x GOMAXPROCS. Like the trace
//     plane (PR 9), storage is registered per node: a series belongs to
//     one node and must only be updated by that node's events, so a
//     sharded engine needs no locks and no cross-shard ordering. Export
//     merges nodes in registration order and series in name order —
//     canonical, partition-independent.
//
// Instrument creation (Registry.Counter/Gauge/Busy) is a setup-time act:
// call it while the engine is idle (attach time), keep the handles, and
// sample through them at runtime. Creating instruments from inside a
// running sharded simulation is a data race on the registry's maps.
package metrics

import (
	"time"

	"pvfsib/internal/sim"
)

// Config sizes a Registry.
type Config struct {
	// Interval is the bucket width of every series. Zero means 50us.
	Interval sim.Duration
	// Depth is the number of intervals each series retains. Zero means 2048.
	Depth int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Microsecond
	}
	if c.Depth <= 0 {
		c.Depth = 2048
	}
	return c
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindBusy
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "busy"
	}
}

// series is one (node, name) time series: a ring of per-interval values.
// vals[idx%depth] holds interval idx iff stamp[idx%depth] == idx+1; the
// ring covers intervals (last-depth, last]. Writers only ever move `last`
// forward (a node's clock never runs backwards).
type series struct {
	node     string
	name     string
	kind     kind
	interval int64 // ns per bucket
	depth    int64

	vals  []int64
	stamp []int64 // interval index + 1, 0 = untouched
	last  int64   // highest materialized interval index; -1 before first write

	// total is the cumulative sum for counters and busy series, and the
	// current value for gauges. It survives ring wrap.
	total int64
	hi    int64 // gauge high-water mark
	carry int64 // gauge: last value evicted from the ring (carry at window start)
	lost  int64 // samples older than the retained window, discarded
}

// advance materializes interval idx, evicting intervals that fall off the
// ring. Eviction walks in interval order so a gauge's carry ends up the
// latest evicted value.
func (s *series) advance(idx int64) {
	d := s.depth
	if idx-s.last >= d {
		if s.kind == kindGauge {
			for j := s.last - d + 1; j <= s.last; j++ {
				if j < 0 {
					continue
				}
				if p := j % d; s.stamp[p] == j+1 {
					s.carry = s.vals[p]
				}
			}
		}
		for i := range s.vals {
			s.vals[i] = 0
			s.stamp[i] = 0
		}
		s.last = idx
		return
	}
	for j := s.last + 1; j <= idx; j++ {
		p := j % d
		if old := j - d; old >= 0 && s.stamp[p] == old+1 {
			if s.kind == kindGauge {
				s.carry = s.vals[p]
			}
		}
		s.vals[p] = 0
		s.stamp[p] = 0
	}
	s.last = idx
}

// bucket returns the ring position for interval idx, advancing the ring if
// idx is new. It returns -1 for writes older than the retained window.
func (s *series) bucket(idx int64) int {
	if idx < 0 {
		idx = 0
	}
	if idx > s.last {
		s.advance(idx)
	}
	if idx <= s.last-s.depth {
		s.lost++
		return -1
	}
	p := idx % s.depth
	s.stamp[p] = idx + 1
	return int(p)
}

// Counter is a monotonically accumulating instrument: each Add lands in
// the interval containing t (per-interval deltas) and in the cumulative
// total. The zero Counter is a valid no-op sink.
//
// A counter may also have an owner (Owned): the always-on int64 its
// entity keeps for Snapshot. Add then counts the event once, into both,
// so the two can never drift apart; with no series (a nil registry) only
// the owner counts.
type Counter struct {
	s   *series
	own *int64
}

// Owned returns c writing through to owner as well as to its series.
func (c Counter) Owned(owner *int64) Counter {
	c.own = owner
	return c
}

// Add records v at virtual time t. A zero-value Counter ignores the call.
func (c Counter) Add(t sim.Time, v int64) {
	if c.own != nil {
		*c.own += v
	}
	s := c.s
	if s == nil {
		return
	}
	s.total += v
	if p := s.bucket(int64(t) / s.interval); p >= 0 {
		s.vals[p] += v
	}
}

// Total returns the cumulative sum (zero for a no-op sink).
func (c Counter) Total() int64 {
	if c.s == nil {
		return 0
	}
	return c.s.total
}

// Gauge is a last-value instrument: each interval remembers the value it
// ended with, and export carries values forward across silent intervals.
// The zero Gauge is a valid no-op sink.
type Gauge struct{ s *series }

// Set records the absolute value v at virtual time t.
func (g Gauge) Set(t sim.Time, v int64) {
	s := g.s
	if s == nil {
		return
	}
	s.total = v
	if v > s.hi {
		s.hi = v
	}
	if p := s.bucket(int64(t) / s.interval); p >= 0 {
		s.vals[p] = v
	}
}

// Add shifts the gauge by d at virtual time t (queue-depth style: +1 on
// enqueue, -1 on dequeue).
func (g Gauge) Add(t sim.Time, d int64) {
	s := g.s
	if s == nil {
		return
	}
	s.total += d
	if s.total > s.hi {
		s.hi = s.total
	}
	if p := s.bucket(int64(t) / s.interval); p >= 0 {
		s.vals[p] = s.total
	}
}

// Current returns the gauge's present value.
func (g Gauge) Current() int64 {
	if g.s == nil {
		return 0
	}
	return g.s.total
}

// High returns the gauge's high-water mark.
func (g Gauge) High() int64 {
	if g.s == nil {
		return 0
	}
	return g.s.hi
}

// Busy accumulates busy nanoseconds per interval: AddSpan splits [from,
// to) across the intervals it covers, so vals[i]/interval is the
// utilization of the resource in interval i. The zero Busy is a valid
// no-op sink.
type Busy struct{ s *series }

// AddSpan charges the busy span [from, to) at its completion time. Spans
// are charged by the owning node, typically right after the modeled
// Sleep, so `to` is the node's current time.
func (b Busy) AddSpan(from, to sim.Time) {
	s := b.s
	if s == nil || to <= from {
		return
	}
	t0, t1 := int64(from), int64(to)
	s.total += t1 - t0
	for t0 < t1 {
		idx := t0 / s.interval
		end := (idx + 1) * s.interval
		if end > t1 {
			end = t1
		}
		if p := s.bucket(idx); p >= 0 {
			s.vals[p] += end - t0
		}
		t0 = end
	}
}

// Total returns the cumulative busy nanoseconds.
func (b Busy) Total() int64 {
	if b.s == nil {
		return 0
	}
	return b.s.total
}

// node is one registered node's instrument set.
type node struct {
	name   string
	byName map[string]*series
	list   []*series // creation order
}

// Registry owns the per-node series. A nil *Registry is valid: every
// instrument it hands out is the zero-value no-op sink.
type Registry struct {
	cfg   Config
	nodes map[string]*node
	order []string // registration order, canonical for export
}

// NewRegistry creates an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg.withDefaults(), nodes: make(map[string]*node)}
}

// Interval returns the configured bucket width.
func (r *Registry) Interval() sim.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.Interval
}

// RegisterNodes declares node names. Instruments can only be created for
// registered nodes: on a sharded engine a series must be updated only by
// its node's own events, so every producer must be named up front.
// Registering a name twice is a no-op.
func (r *Registry) RegisterNodes(names ...string) {
	if r == nil {
		return
	}
	for _, name := range names {
		if _, ok := r.nodes[name]; ok {
			continue
		}
		r.nodes[name] = &node{name: name, byName: make(map[string]*series)}
		r.order = append(r.order, name)
	}
}

func (r *Registry) get(nodeName, name string, k kind) *series {
	if r == nil {
		return nil
	}
	n := r.nodes[nodeName]
	if n == nil {
		sim.Failf("metrics: instrument %q for unregistered node %q (register every node name up front)", name, nodeName)
	}
	if s, ok := n.byName[name]; ok {
		if s.kind != k {
			sim.Failf("metrics: %s/%s redeclared as %v (was %v)", nodeName, name, k, s.kind)
		}
		return s
	}
	s := &series{
		node: nodeName, name: name, kind: k,
		interval: int64(r.cfg.Interval), depth: int64(r.cfg.Depth),
		vals: make([]int64, r.cfg.Depth), stamp: make([]int64, r.cfg.Depth),
		last: -1,
	}
	n.byName[name] = s
	n.list = append(n.list, s)
	return s
}

// Counter returns node's counter series called name, creating it on first
// use. On a nil registry it returns the no-op sink.
func (r *Registry) Counter(node, name string) Counter {
	return Counter{s: r.get(node, name, kindCounter)}
}

// Gauge returns node's gauge series called name, creating it on first use.
func (r *Registry) Gauge(node, name string) Gauge {
	return Gauge{s: r.get(node, name, kindGauge)}
}

// Busy returns node's busy series called name, creating it on first use.
func (r *Registry) Busy(node, name string) Busy {
	return Busy{s: r.get(node, name, kindBusy)}
}
