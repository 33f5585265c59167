package fault

import (
	"math/rand"
	"testing"
	"time"

	"pvfsib/internal/sim"
)

func TestSendVerdictCutWindow(t *testing.T) {
	var in Injector
	in.Arm(Plan{Cuts: []Cut{{A: 1, B: 4, At: 10 * time.Microsecond, Dur: 5 * time.Microsecond}}})
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
	var in Injector
	in.Arm(Plan{
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
		var in Injector
		in.Arm(Plan{Seed: seed, WRErrorRate: 0.3, RegFailRate: 0.3})
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
	var in Injector
	in.Arm(Plan{Seed: 7, DiskErrorRate: 1, DiskSlowRate: 1})
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

// TestRandsReseedLikeFresh arms three plans one after the other on one
// injector, as a cluster re-arms its plans: "io0" draws under the first and
// the third but not the second, "io0.disk" only under the second, "cn0"
// never, and an unregistered node draws from the root stream under every
// plan. Every draw is the one a generator freshly seeded for its plan and
// stream gives, a stream that never draws is never seeded, the tallies
// count exactly the current plan's faults and stay readable until the next
// plan is armed, and arming starts them at zero.
func TestRandsReseedLikeFresh(t *testing.T) {
	const draws = 64
	plans := []Plan{
		{Seed: 7, WRErrorRate: 0.5},
		{Seed: 11, DiskErrorRate: 0.5},
		{Seed: 13, WRErrorRate: 0.5},
	}
	var in Injector
	in.Register("io0", "io0.disk", "cn0")
	for i, plan := range plans {
		in.Arm(plan)
		if tot := in.Totals(); tot != (Counters{}) {
			t.Fatalf("plan %d armed with tallies %v, want zero", i+1, tot)
		}
		injected := int64(0)
		// check compares node's draws under the plan with a generator
		// seeded as the stream's: the root's ("") with the plan seed alone.
		check := func(node, stream string, draw func() bool) {
			salt := int64(0)
			if stream != "" {
				salt = int64(fnv64(stream))
			}
			fresh := rand.New(rand.NewSource(plan.Seed ^ salt))
			for j := 0; j < draws; j++ {
				got, want := draw(), fresh.Float64() < 0.5
				if got != want {
					t.Fatalf("plan %d: %s's draw %d is %t, a fresh generator's %t", i+1, node, j, got, want)
				}
				if got {
					injected++
				}
			}
		}
		wr := func(node string) func() bool { return func() bool { return in.WRError(0, node) } }
		dsk := func(node string) func() bool { return func() bool { return in.DiskFault(0, node, true, 4096) > 0 } }
		if plan.WRErrorRate > 0 {
			check("io0", "io0", wr("io0"))
			check("unregistered", "", wr("unregistered"))
		} else {
			check("io0.disk", "io0.disk", dsk("io0.disk"))
			check("unregistered", "", dsk("unregistered"))
		}
		if injected == 0 {
			t.Fatalf("plan %d injected nothing: the script draws too little", i+1)
		}
		if tot := in.Totals(); tot.WRErrors+tot.DiskErrors != injected {
			t.Errorf("plan %d tallies %v, want %d faults", i+1, tot, injected)
		}
	}
	for name, i := range in.index {
		if seeded, drew := in.streams[i].rng != nil, name != "cn0"; seeded != drew {
			t.Errorf("%s: generator made %t, stream drew %t", name, seeded, drew)
		}
	}
}
