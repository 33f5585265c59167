package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// hostSpan is one host-clock span recorded by the harness around its calls
// into the program: name, start and end in ns since the root opened, and
// the index of the span that was open when it started (-1 for the root).
type hostSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// hostSpans keeps the spans in memory until the run ends. The engine runs
// one goroutine at a time and no harness span stays open across a blocking
// simulation call, so spans nest and a stack finds each span's parent. A
// nil *hostSpans records nothing: end-to-end runs measure with tracing off.
type hostSpans struct {
	t0    time.Time
	recs  []hostSpan
	stack []int
}

// spanRef closes one span.
type spanRef struct {
	h *hostSpans
	i int
}

func newHostSpans(root string) *hostSpans {
	//pvfslint:ok detcheck host spans are host-clock readings by definition; they never feed the virtual timeline
	h := &hostSpans{t0: time.Now()}
	h.start(root)
	return h
}

func (h *hostSpans) now() int64 {
	//pvfslint:ok detcheck host spans are host-clock readings by definition; they never feed the virtual timeline
	return int64(time.Since(h.t0))
}

func (h *hostSpans) start(name string) spanRef {
	if h == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(h.stack); n > 0 {
		parent = h.stack[n-1]
	}
	h.recs = append(h.recs, hostSpan{Name: name, StartNs: h.now(), Parent: parent})
	h.stack = append(h.stack, len(h.recs)-1)
	return spanRef{h: h, i: len(h.recs) - 1}
}

func (s spanRef) end() {
	if s.h == nil {
		return
	}
	s.h.recs[s.i].EndNs = s.h.now()
	s.h.stack = s.h.stack[:len(s.h.stack)-1]
}

// finish ends the root span.
func (h *hostSpans) finish() { spanRef{h: h, i: 0}.end() }

// selfSeconds sums, per span name, duration minus the time covered by
// child spans.
func (h *hostSpans) selfSeconds() map[string]float64 {
	child := make([]int64, len(h.recs))
	for _, r := range h.recs {
		if r.Parent >= 0 {
			child[r.Parent] += r.EndNs - r.StartNs
		}
	}
	out := map[string]float64{}
	for i, r := range h.recs {
		out[r.Name] += float64(r.EndNs-r.StartNs-child[i]) / 1e9
	}
	return out
}

// check reports the first span that escapes its parent, or whose children
// together outlast it.
func (h *hostSpans) check() error {
	child := make([]int64, len(h.recs))
	for i, r := range h.recs {
		if r.EndNs < r.StartNs {
			return fmt.Errorf("host span %d (%s) never ended", i, r.Name)
		}
		if r.Parent < 0 {
			continue
		}
		p := h.recs[r.Parent]
		if r.StartNs < p.StartNs || r.EndNs > p.EndNs {
			return fmt.Errorf("host span %d (%s) escapes its parent %s", i, r.Name, p.Name)
		}
		child[r.Parent] += r.EndNs - r.StartNs
	}
	for i, r := range h.recs {
		if child[i] > r.EndNs-r.StartNs {
			return fmt.Errorf("children of host span %d (%s) outlast it", i, r.Name)
		}
	}
	return nil
}

// write stores the spans as JSON in dir/trace-<workload>.json.
func (h *hostSpans) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(h.recs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}
