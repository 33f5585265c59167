package trace

import (
	"fmt"
	"io"
	"sort"
)

// StageStat accumulates self-time for one stage: the nanoseconds spans
// of that stage spent excluding their children, so the stage totals of a
// request partition its wall time instead of double-counting nesting.
type StageStat struct {
	Ns    int64
	Count int64
}

// NodeGauge is a per-node maximum-concurrency reading.
type NodeGauge struct {
	Node string
	Max  int
}

// Profile is the aggregate view of a span table: the cost-model
// decomposition the paper tabulates (registration vs. transfer vs. disk
// time), computed per stage, plus end-to-end request latency and
// per-server concurrency. Everything derives from virtual timestamps,
// so identical runs produce identical profiles.
type Profile struct {
	Requests int64
	Spans    int64
	// Latency aggregates root-span (whole-request) durations.
	Latency Histogram
	// Stage holds per-stage self-time totals, indexed by Stage.
	Stage [NumStages]StageStat
	// StageHist holds per-stage self-time distributions.
	StageHist [NumStages]Histogram
	// Inflight reports, per server node, the maximum number of requests
	// in dispatch simultaneously, sorted by node name.
	Inflight []NodeGauge
}

// dispatchKind is the span kind the server opens per accepted request;
// the in-flight gauge counts overlapping spans of this kind.
const dispatchKind = "srv.dispatch"

// Profile aggregates the tracer's span table. Open (never-ended) spans
// contribute nothing; Tracer.Open counts them, and the census tests hold
// that count to 0.
func (t *Tracer) Profile() *Profile {
	p := &Profile{}
	if t == nil {
		return p
	}
	spans := t.Spans()
	p.Spans = int64(len(spans))
	p.Requests = int64(t.Requests())

	// Self time: each span's duration minus the summed durations of its
	// direct children, clamped at zero (children of a fan-out span may
	// overlap each other and exceed the parent). Parents are resolved by
	// ID, not index: the ID packs the node index with a per-node sequence.
	byID := make(map[SpanID]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	childNs := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 && s.Ended {
			if pi, ok := byID[s.Parent]; ok {
				childNs[pi] += s.Dur()
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if !s.Ended {
			continue
		}
		self := s.Dur() - childNs[i]
		if self < 0 {
			self = 0
		}
		p.Stage[s.Stage].Ns += self
		p.Stage[s.Stage].Count++
		p.StageHist[s.Stage].Observe(self)
		if s.Parent == 0 && s.Req != 0 {
			p.Latency.Observe(s.Dur())
		}
	}

	// Max in-flight dispatches per server node: sweep start/end edges in
	// time order, breaking ties by span ID so the sweep is deterministic.
	type edge struct {
		at    int64
		delta int
		id    SpanID
	}
	byNode := map[string][]edge{}
	for i := range spans {
		s := &spans[i]
		if s.Kind != dispatchKind || !s.Ended {
			continue
		}
		byNode[s.Node] = append(byNode[s.Node],
			edge{int64(s.Start), +1, s.ID}, edge{int64(s.End), -1, s.ID})
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		es := byNode[n]
		sort.Slice(es, func(a, b int) bool {
			if es[a].at != es[b].at {
				return es[a].at < es[b].at
			}
			if es[a].delta != es[b].delta {
				return es[a].delta < es[b].delta // close before open at the same tick
			}
			return es[a].id < es[b].id
		})
		cur, max := 0, 0
		for _, e := range es {
			cur += e.delta
			if cur > max {
				max = cur
			}
		}
		p.Inflight = append(p.Inflight, NodeGauge{Node: n, Max: max})
	}
	return p
}

// MaxInflight returns the largest per-node in-flight gauge, zero when no
// dispatch spans were recorded.
func (p *Profile) MaxInflight() int {
	max := 0
	for _, g := range p.Inflight {
		if g.Max > max {
			max = g.Max
		}
	}
	return max
}

// TotalNs returns the summed self-time across all stages.
func (p *Profile) TotalNs() int64 {
	var total int64
	for _, st := range p.Stage {
		total += st.Ns
	}
	return total
}

// WriteBreakdown renders the critical-path breakdown table: one row per
// stage with total self-time, share, and span count, followed by the
// request-latency summary and the per-server concurrency gauges.
func (p *Profile) WriteBreakdown(w io.Writer) error {
	total := p.TotalNs()
	if _, err := fmt.Fprintf(w, "%-8s %12s %7s %10s\n", "stage", "total_ms", "share", "spans"); err != nil {
		return err
	}
	for st := Stage(0); st < NumStages; st++ {
		s := p.Stage[st]
		if s.Count == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = float64(s.Ns) / float64(total) * 100
		}
		if _, err := fmt.Fprintf(w, "%-8s %12.3f %6.1f%% %10d\n",
			st.String(), float64(s.Ns)/1e6, share, s.Count); err != nil {
			return err
		}
	}
	if p.Latency.Count > 0 {
		if _, err := fmt.Fprintf(w, "requests %d  mean=%.3fms p50<=%.3fms p99<=%.3fms max=%.3fms\n",
			p.Latency.Count,
			float64(p.Latency.Mean())/1e6,
			float64(p.Latency.Quantile(0.50))/1e6,
			float64(p.Latency.Quantile(0.99))/1e6,
			float64(p.Latency.Max)/1e6); err != nil {
			return err
		}
	}
	for _, g := range p.Inflight {
		if _, err := fmt.Fprintf(w, "inflight %-8s max=%d\n", g.Node, g.Max); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the profile as a single deterministic JSON object:
// stage order is the Stage enum, node gauges are name-sorted, and all
// numbers are integers, so byte-identical runs serialize identically.
func (p *Profile) WriteJSON(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "{\"requests\":%d,\"spans\":%d,\"stages\":{", p.Requests, p.Spans); err != nil {
		return err
	}
	first := true
	for st := Stage(0); st < NumStages; st++ {
		s := p.Stage[st]
		if s.Count == 0 {
			continue
		}
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		if _, err := fmt.Fprintf(w, "\"%s\":{\"ns\":%d,\"count\":%d}", st.String(), s.Ns, s.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "},\"latency\":{\"count\":%d,\"sum_ns\":%d,\"mean_ns\":%d,\"p50_ns\":%d,\"p99_ns\":%d,\"max_ns\":%d},\"inflight\":{",
		p.Latency.Count, p.Latency.Sum, p.Latency.Mean(),
		p.Latency.Quantile(0.50), p.Latency.Quantile(0.99), p.Latency.Max); err != nil {
		return err
	}
	for i, g := range p.Inflight {
		sep := ""
		if i > 0 {
			sep = ","
		}
		if _, err := fmt.Fprintf(w, "%s\"%s\":%d", sep, g.Node, g.Max); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}}\n")
	return err
}
