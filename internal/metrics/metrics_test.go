package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pvfsib/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n * 1000) }

func newTestRegistry(depth int) *Registry {
	r := NewRegistry(Config{Interval: 10 * time.Microsecond, Depth: depth})
	r.RegisterNodes("a", "b")
	return r
}

func TestCounterBuckets(t *testing.T) {
	r := newTestRegistry(16)
	c := r.Counter("a", "reqs")
	c.Add(us(5), 1)  // interval 0
	c.Add(us(12), 2) // interval 1
	c.Add(us(14), 3) // interval 1
	c.Add(us(35), 4) // interval 3
	if got := c.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	ss := r.Snapshot(us(39))
	if len(ss) != 1 {
		t.Fatalf("series count = %d, want 1", len(ss))
	}
	s := ss[0]
	want := []int64{1, 5, 0, 4}
	if len(s.Vals) != len(want) {
		t.Fatalf("vals = %v, want %v", s.Vals, want)
	}
	for i := range want {
		if s.Vals[i] != want[i] {
			t.Fatalf("vals = %v, want %v", s.Vals, want)
		}
	}
	if s.Kind != "counter" || s.Node != "a" || s.Name != "reqs" || s.First != 0 {
		t.Fatalf("series header = %+v", s)
	}
}

func TestGaugeCarryForward(t *testing.T) {
	r := newTestRegistry(16)
	g := r.Gauge("a", "q")
	g.Add(us(5), 3)  // interval 0: 3
	g.Add(us(11), 2) // interval 1: 5
	// intervals 2..4 silent
	g.Set(us(52), 1) // interval 5: 1
	if g.Current() != 1 || g.High() != 5 {
		t.Fatalf("current=%d high=%d, want 1/5", g.Current(), g.High())
	}
	s := r.Snapshot(us(75))[0]
	want := []int64{3, 5, 5, 5, 5, 1, 1, 1} // carry across silence and past last write
	for i := range want {
		if s.Vals[i] != want[i] {
			t.Fatalf("vals = %v, want %v", s.Vals, want)
		}
	}
}

func TestBusySpanSplit(t *testing.T) {
	r := newTestRegistry(16)
	b := r.Busy("a", "disk")
	b.AddSpan(us(5), us(27)) // 5us in interval 0, 10 in 1, 7 in 2
	b.AddSpan(us(28), us(29))
	if b.Total() != 23000 {
		t.Fatalf("Total = %d, want 23000", b.Total())
	}
	s := r.Snapshot(us(29))[0]
	want := []int64{5000, 10000, 8000}
	for i := range want {
		if s.Vals[i] != want[i] {
			t.Fatalf("vals = %v, want %v", s.Vals, want)
		}
	}
}

func TestRingEvictionAndCarry(t *testing.T) {
	r := newTestRegistry(4)
	c := r.Counter("a", "n")
	g := r.Gauge("a", "q")
	for i := int64(0); i < 10; i++ {
		c.Add(us(i*10+1), 1)
		g.Set(us(i*10+1), i)
	}
	ss := r.Snapshot(us(99)) // window = intervals 6..9
	for _, s := range ss {
		if s.First != 6 || len(s.Vals) != 4 {
			t.Fatalf("window = first=%d len=%d, want 6/4", s.First, len(s.Vals))
		}
	}
	// g silent after 91us; snapshot at 130 pushes intervals 10..13; the
	// window starts past the last write and must carry the current value.
	s2 := r.Snapshot(us(135))
	for _, s := range s2 {
		if s.Name != "q" {
			continue
		}
		for i, v := range s.Vals {
			if v != 9 {
				t.Fatalf("gauge carry after silence: vals[%d] = %d, want 9 (%v)", i, v, s.Vals)
			}
		}
	}
	// A write far in the past (beyond the ring) is counted as lost but
	// still lands in the total.
	c.Add(us(200), 1) // advance ring to interval 20
	c.Add(us(10), 5)  // interval 1: long gone
	if c.Total() != 16 {
		t.Fatalf("Total = %d, want 16", c.Total())
	}
	for _, s := range r.Snapshot(us(209)) {
		if s.Name == "n" && s.Lost != 1 {
			t.Fatalf("Lost = %d, want 1", s.Lost)
		}
	}
}

func TestNilRegistryAndZeroHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "n")
	g := r.Gauge("x", "q")
	b := r.Busy("x", "u")
	c.Add(us(1), 5)
	g.Set(us(1), 5)
	g.Add(us(2), 1)
	b.AddSpan(us(1), us(2))
	if c.Total() != 0 || g.Current() != 0 || g.High() != 0 || b.Total() != 0 {
		t.Fatal("zero handles must report zero")
	}
	if r.Snapshot(us(10)) != nil || r.Current("n") != 0 {
		t.Fatal("nil registry must report empty")
	}
	if err := r.WritePromText(&bytes.Buffer{}, us(10)); err != nil {
		t.Fatal(err)
	}
	var zc Counter
	var zg Gauge
	var zb Busy
	zc.Add(us(1), 1)
	zg.Add(us(1), 1)
	zb.AddSpan(us(0), us(1))
}

func TestCanonicalOrderAndCurrent(t *testing.T) {
	r := newTestRegistry(8)
	// Create in scrambled order; export must be node-registration then
	// name order.
	r.Counter("b", "zz").Add(us(1), 7)
	r.Counter("a", "mm").Add(us(1), 1)
	r.Counter("a", "aa").Add(us(1), 2)
	r.Counter("b", "aa").Add(us(1), 3)
	ss := r.Snapshot(us(9))
	var got []string
	for _, s := range ss {
		got = append(got, s.Node+"/"+s.Name)
	}
	want := "a/aa a/mm b/aa b/zz"
	if strings.Join(got, " ") != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
	if v := r.Current("aa"); v != 5 {
		t.Fatalf("Current(aa) = %d, want 5", v)
	}
	if v := r.Current("nope"); v != 0 {
		t.Fatalf("Current(nope) = %d, want 0", v)
	}
}

func TestWriteJSONAndProm(t *testing.T) {
	r := newTestRegistry(8)
	r.Counter("a", "net.tx.bytes").Add(us(3), 100)
	r.Gauge("a", "q.depth").Set(us(3), 4)
	r.Busy("b", "disk.busy").AddSpan(us(0), us(5))
	var j bytes.Buffer
	if err := r.WriteJSON(&j, us(9)); err != nil {
		t.Fatal(err)
	}
	for _, wantSub := range []string{`"interval_ns": 10000`, `"net.tx.bytes"`, `"kind": "busy"`} {
		if !strings.Contains(j.String(), wantSub) {
			t.Fatalf("JSON missing %s:\n%s", wantSub, j.String())
		}
	}
	var p bytes.Buffer
	if err := r.WritePromText(&p, us(9)); err != nil {
		t.Fatal(err)
	}
	out := p.String()
	for _, wantSub := range []string{
		"# TYPE pvfs_net_tx_bytes_total counter",
		`pvfs_net_tx_bytes_total{node="a"} 100`,
		"# TYPE pvfs_q_depth gauge",
		`pvfs_q_depth{node="a"} 4`,
		"# TYPE pvfs_disk_busy_busy_ns_total counter",
		`pvfs_disk_busy_busy_ns_total{node="b"} 5000`,
	} {
		if !strings.Contains(out, wantSub) {
			t.Fatalf("prom output missing %q:\n%s", wantSub, out)
		}
	}
	// Metric families must be contiguous and sorted.
	idxDisk := strings.Index(out, "pvfs_disk_busy")
	idxNet := strings.Index(out, "pvfs_net_tx_bytes")
	idxQ := strings.Index(out, "pvfs_q_depth")
	if !(idxDisk < idxNet && idxNet < idxQ) {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestUpdateAllocFree(t *testing.T) {
	r := newTestRegistry(64)
	c := r.Counter("a", "n")
	g := r.Gauge("a", "q")
	b := r.Busy("a", "u")
	var tick int64
	allocs := testing.AllocsPerRun(200, func() {
		tick += 3000
		c.Add(sim.Time(tick), 1)
		g.Add(sim.Time(tick), 1)
		b.AddSpan(sim.Time(tick-2000), sim.Time(tick))
	})
	if allocs != 0 {
		t.Fatalf("enabled-path update allocates: %v allocs/op", allocs)
	}
}
