package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"pvfsib/internal/sim"
)

// Series is one exported time series: per-interval values for the window
// [First, First+len(Vals)) of intervals, plus the run total. Counters and
// busy series report per-interval deltas / busy-ns; gauges report the
// value each interval ended with, carried forward across silent
// intervals.
type Series struct {
	Node  string  `json:"node"`
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Total int64   `json:"total"`
	First int64   `json:"first"`
	Vals  []int64 `json:"vals"`
	Lost  int64   `json:"lost,omitempty"`
}

// Dump is the JSON envelope WriteJSON emits.
type Dump struct {
	IntervalNS int64    `json:"interval_ns"`
	UntilNS    int64    `json:"until_ns"`
	Series     []Series `json:"series"`
}

// lastIdx returns the index of the interval containing until (the final,
// possibly partial, interval of the run).
func (r *Registry) lastIdx(until sim.Time) int64 {
	if until < 0 {
		return 0
	}
	return int64(until) / int64(r.cfg.Interval)
}

// Snapshot materializes every series over the intervals [first, lastIdx]
// where lastIdx covers `until` (pass the engine clock) and first is
// bounded by the ring depth. The order is canonical — nodes in
// registration order, series in name order within a node — so the
// snapshot is byte-identical at any shard count.
func (r *Registry) Snapshot(until sim.Time) []Series {
	if r == nil {
		return nil
	}
	lastIdx := r.lastIdx(until)
	first := lastIdx + 1 - int64(r.cfg.Depth)
	if first < 0 {
		first = 0
	}
	n := int(lastIdx - first + 1)
	var out []Series
	for _, nodeName := range r.order {
		nd := r.nodes[nodeName]
		list := make([]*series, len(nd.list))
		copy(list, nd.list)
		sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
		for _, s := range list {
			vals := make([]int64, n)
			carry := s.carry
			for i := 0; i < n; i++ {
				idx := first + int64(i)
				switch {
				case idx > s.last:
					if s.kind == kindGauge {
						vals[i] = s.total
					}
				case s.stamp[idx%s.depth] == idx+1:
					vals[i] = s.vals[idx%s.depth]
					carry = vals[i]
				default:
					if s.kind == kindGauge {
						vals[i] = carry
					}
				}
			}
			out = append(out, Series{
				Node: s.node, Name: s.name, Kind: s.kind.String(),
				Total: s.total, First: first, Vals: vals, Lost: s.lost,
			})
		}
	}
	return out
}

// Current sums the instantaneous value of every series called name across
// all nodes: cumulative totals for counters and busy series, current
// values for gauges. Iteration follows registration order, so the result
// is deterministic. A nil registry reports zero.
func (r *Registry) Current(name string) int64 {
	if r == nil {
		return 0
	}
	var sum int64
	for _, nodeName := range r.order {
		if s, ok := r.nodes[nodeName].byName[name]; ok {
			sum += s.total
		}
	}
	return sum
}

// Sum is every node's series of one name added together: the run totals,
// and the values interval by interval.
type Sum struct {
	Kind  string
	Nodes int // series summed
	Total int64
	Vals  []int64
}

// SumByName adds up a snapshot's series by name across nodes. A snapshot's
// series all cover the same window, so their values align index by index.
func SumByName(snap []Series) map[string]*Sum {
	sums := make(map[string]*Sum)
	for _, s := range snap {
		g := sums[s.Name]
		if g == nil {
			g = &Sum{Kind: s.Kind, Vals: make([]int64, len(s.Vals))}
			sums[s.Name] = g
		}
		g.Nodes++
		g.Total += s.Total
		for i, v := range s.Vals {
			g.Vals[i] += v
		}
	}
	return sums
}

// WriteJSON emits every series as one indented JSON document.
func (r *Registry) WriteJSON(w io.Writer, until sim.Time) error {
	d := Dump{
		IntervalNS: int64(r.Interval()),
		UntilNS:    int64(until),
		Series:     r.Snapshot(until),
	}
	buf, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// promName maps a series name to a Prometheus metric name:
// "net.tx.bytes" -> "pvfs_net_tx_bytes".
func promName(name string) string {
	mapped := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			return c
		default:
			return '_'
		}
	}, name)
	return "pvfs_" + mapped
}

// WritePromText emits the instantaneous state of every series in
// Prometheus text exposition format: counters and busy series as
// `<name>_total` counters (busy in nanoseconds), gauges as gauges.
// Samples of one metric are grouped (a format requirement), metric names
// are sorted, and nodes appear in registration order — fully
// deterministic.
func (r *Registry) WritePromText(w io.Writer, until sim.Time) error {
	if r == nil {
		return nil
	}
	type sample struct {
		node string
		val  int64
	}
	byName := make(map[string][]sample)
	kinds := make(map[string]kind)
	var names []string
	for _, nodeName := range r.order {
		nd := r.nodes[nodeName]
		for _, s := range nd.list {
			if _, ok := byName[s.name]; !ok {
				names = append(names, s.name)
				kinds[s.name] = s.kind
			}
			byName[s.name] = append(byName[s.name], sample{node: nodeName, val: s.total})
		}
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		ptype := "counter"
		switch kinds[name] {
		case kindGauge:
			ptype = "gauge"
		case kindBusy:
			pn += "_busy_ns"
		}
		if ptype == "counter" {
			pn += "_total"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", pn, ptype); err != nil {
			return err
		}
		for _, smp := range byName[name] {
			if _, err := fmt.Fprintf(w, "%s{node=%q} %d\n", pn, smp.node, smp.val); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "# EOF (virtual time %dns)\n", int64(until))
	return err
}
