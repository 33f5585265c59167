package fault

import (
	"slices"
	"testing"
	"time"

	"pvfsib/internal/sim"
)

func TestSendVerdictCutWindow(t *testing.T) {
	in := NewInjector(Plan{Cuts: []Cut{{A: 1, B: 4, At: 10 * time.Microsecond, Dur: 5 * time.Microsecond}}})
	us := func(d int64) sim.Time { return sim.Time(d * 1000) }

	if drop, _ := in.SendVerdict(us(9), 1, 4, 100); drop {
		t.Fatal("dropped before window")
	}
	if drop, _ := in.SendVerdict(us(10), 1, 4, 100); !drop {
		t.Fatal("not dropped at window start")
	}
	if drop, _ := in.SendVerdict(us(12), 4, 1, 100); !drop {
		t.Fatal("cut must be bidirectional")
	}
	if drop, _ := in.SendVerdict(us(12), 1, 2, 100); drop {
		t.Fatal("unrelated link dropped")
	}
	if drop, _ := in.SendVerdict(us(15), 1, 4, 100); drop {
		t.Fatal("dropped after heal")
	}
	if in.Counters.Drops != 2 {
		t.Fatalf("Drops = %d, want 2", in.Counters.Drops)
	}
}

func TestSendVerdictWildcardAndSpike(t *testing.T) {
	in := NewInjector(Plan{
		Cuts:   []Cut{{A: Wildcard, B: 3, At: 0, Dur: time.Millisecond}},
		Spikes: []Spike{{From: 0, To: Wildcard, At: 0, Dur: time.Millisecond, Extra: 7 * time.Microsecond}},
	})
	if drop, _ := in.SendVerdict(0, 9, 3, 1); !drop {
		t.Fatal("wildcard cut missed inbound")
	}
	if drop, _ := in.SendVerdict(0, 3, 9, 1); !drop {
		t.Fatal("wildcard cut missed outbound")
	}
	drop, extra := in.SendVerdict(0, 5, 0, 1)
	if drop || extra != 7*time.Microsecond {
		t.Fatalf("spike verdict = (%v, %v), want (false, 7µs)", drop, extra)
	}
}

func TestProbabilisticDrawsAreSeeded(t *testing.T) {
	draw := func(seed int64) (a, b [64]bool) {
		in := NewInjector(Plan{Seed: seed, WRErrorRate: 0.3, RegFailRate: 0.3})
		for i := range a {
			a[i] = in.WRError(0, "n")
			b[i] = in.RegFail(0, "n")
		}
		return
	}
	a1, b1 := draw(42)
	a2, b2 := draw(42)
	if a1 != a2 || b1 != b2 {
		t.Fatal("same seed produced different fault schedules")
	}
	a3, _ := draw(43)
	if a1 == a3 {
		t.Fatal("different seeds produced identical WR-error schedules (suspicious)")
	}
}

func TestDiskFaultDefaultsAndCounters(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, DiskErrorRate: 1, DiskSlowRate: 1})
	extra := in.DiskFault(0, "d", true, 4096)
	if extra != 3*time.Millisecond {
		t.Fatalf("extra = %v, want 3ms (2ms error + 1ms slow defaults)", extra)
	}
	if in.Counters.DiskErrors != 1 || in.Counters.DiskSlow != 1 {
		t.Fatalf("counters = %+v", in.Counters)
	}
}

func TestEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Fatal("zero plan not Empty")
	}
	if (Plan{WRErrorRate: 0.1}).Empty() {
		t.Fatal("plan with a rate reported Empty")
	}
	if (Plan{Crashes: []Crash{{Server: 1}}}).Empty() {
		t.Fatal("plan with a crash reported Empty")
	}
}

// TestRandsReseedLikeFresh is attach plan A, detach, attach plan B with the
// generators kept across the attaches, as a cluster keeps them: B draws on
// every stream, the root's and each registered node's, exactly what an
// injector built fresh for B draws, and A's counters are untouched.
func TestRandsReseedLikeFresh(t *testing.T) {
	planA := Plan{Seed: 7, WRErrorRate: 0.3, DiskErrorRate: 0.2}
	planB := Plan{Seed: 11, WRErrorRate: 0.5, RegFailRate: 0.4, DiskSlowRate: 0.3}
	nodes := []string{"io0", "io0.disk", "cn0", "unregistered"}
	build := func(plan Plan, rs *Rands) *Injector {
		in := NewInjectorFrom(plan, rs)
		for _, n := range nodes[:3] {
			in.Register(n)
		}
		return in
	}
	draws := func(in *Injector) (out []bool) {
		for i := 0; i < 64; i++ {
			for _, n := range nodes {
				out = append(out, in.WRError(0, n), in.RegFail(0, n), in.DiskFault(0, n, true, 4096) > 0)
			}
		}
		return out
	}
	var rs Rands
	a := build(planA, &rs)
	draws(a)
	totalsA := a.Totals()
	if totalsA.WRErrors == 0 || totalsA.DiskErrors == 0 {
		t.Fatalf("plan A injected %v: the script draws too little", totalsA)
	}
	b, fresh := build(planB, &rs), build(planB, new(Rands))
	if got, want := draws(b), draws(fresh); !slices.Equal(got, want) {
		t.Error("an injector on reseeded generators draws other values than a fresh one")
	}
	if b.Totals() != fresh.Totals() {
		t.Errorf("reseeded injector counted %v, fresh one %v", b.Totals(), fresh.Totals())
	}
	if a.Totals() != totalsA {
		t.Errorf("plan A's counters moved from %v to %v after plan B drew", totalsA, a.Totals())
	}
	if len(rs.byName) != len(nodes) {
		t.Errorf("%d generators kept for %d streams", len(rs.byName), len(nodes))
	}
}
