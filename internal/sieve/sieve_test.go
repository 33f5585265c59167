package sieve

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"pvfsib/internal/disk"
	"pvfsib/internal/localfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

func newFile(t *testing.T) (*sim.Engine, *localfs.FS, Params) {
	t.Helper()
	eng := sim.NewEngine()
	d := disk.New(eng, "d", disk.DefaultParams())
	fs := localfs.New(eng, d, localfs.DefaultParams())
	return eng, fs, ModelFromFS(fs, 1300*simnet.MB)
}

func runSim(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	eng.Go("test", fn)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// pattern writes a recognizable byte pattern covering [0, size).
func pattern(size int64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*31 + i/251)
	}
	return b
}

// strided builds n accesses of length l with the given stride from base.
func strided(base, n, l, stride int64) []Access {
	accs := make([]Access, n)
	for i := int64(0); i < n; i++ {
		accs[i] = Access{Off: base + i*stride, Len: l}
	}
	return accs
}

func TestModelPrefersSievingForDenseSmallAccesses(t *testing.T) {
	_, _, params := newFile(t)
	// 128 accesses of 512 bytes with stride 2 kB: span 256 kB, wanted 64 kB.
	w := new(Plan).planWindows(strided(0, 128, 512, 2048), params.MaxBuffer)[0]
	d := params.decide(w, false)
	if !d.UseSieve {
		t.Errorf("model should sieve dense small reads: Tds=%v Tindiv=%v", d.Tds, d.Tindiv)
	}
	dw := params.decide(w, true)
	if !dw.UseSieve {
		t.Errorf("model should sieve dense small writes: Tds=%v Tindiv=%v", dw.Tds, dw.Tindiv)
	}
}

func TestModelRejectsSievingForSparseAccesses(t *testing.T) {
	_, _, params := newFile(t)
	params.MaxBuffer = 1 << 40 // unbounded: one window
	// 4 accesses of 64 kB spread over 512 MB: huge span, tiny wanted.
	w := new(Plan).planWindows(strided(0, 4, 64<<10, 128<<20), params.MaxBuffer)[0]
	d := params.decide(w, false)
	if d.UseSieve {
		t.Errorf("model should not sieve sparse reads: Tds=%v Tindiv=%v", d.Tds, d.Tindiv)
	}
}

func TestModelRejectsSievingForFewLargeAccesses(t *testing.T) {
	_, _, params := newFile(t)
	// 2 accesses of 2 MB each, adjacent-ish: individual access is already
	// near peak bandwidth; sieve write would double the work.
	w := new(Plan).planWindows(strided(0, 2, 2<<20, 4<<20), 1<<40)[0]
	d := params.decide(w, true)
	if d.UseSieve {
		t.Errorf("write sieving of large accesses should lose: Tds=%v Tindiv=%v", d.Tds, d.Tindiv)
	}
}

func TestDecisionCostFormulas(t *testing.T) {
	params := Params{
		Bmem:    1000,
		Br:      func(int64) float64 { return 100 },
		Bw:      func(int64) float64 { return 50 },
		Or:      time.Duration(7) * time.Second,
		Ow:      time.Duration(11) * time.Second,
		Oseek:   time.Duration(13) * time.Second,
		Olock:   time.Duration(3) * time.Second,
		Ounlock: time.Duration(5) * time.Second,
	}
	accs := []Access{{Off: 0, Len: 100}, {Off: 200, Len: 100}}
	w := new(Plan).planWindows(accs, 0)[0]
	d := params.decide(w, false)
	// T_read = 2*(7+13) + 2*(100/100) = 42s
	if want := 42 * time.Second; d.Tindiv != want {
		t.Errorf("Tindiv = %v, want %v", d.Tindiv, want)
	}
	// T_dsr = 7+13 + 300/100 = 23s
	if want := 23 * time.Second; d.Tds != want {
		t.Errorf("Tds = %v, want %v", d.Tds, want)
	}
	dw := params.decide(w, true)
	// T_write = 2*(11+13) + 2*(100/50) = 52s
	if want := 52 * time.Second; dw.Tindiv != want {
		t.Errorf("write Tindiv = %v, want %v", dw.Tindiv, want)
	}
	// T_dsw = T_dsr + 200/1000 + 3 + 11 + 300/50 + 5 = 23 + 0.2 + 25 = 48.2s
	if want := 48200 * time.Millisecond; dw.Tds != want {
		t.Errorf("write Tds = %v, want %v", dw.Tds, want)
	}
}

func TestReadCorrectnessSieved(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		content := pattern(1 << 20)
		f.WriteAt(p, 0, content)
		accs := strided(1000, 64, 700, 3000)
		var stats Stats
		got, decs := Read(p, f, accs, params, Always, &stats)
		var want []byte
		for _, a := range accs {
			want = append(want, content[a.Off:a.End()]...)
		}
		if !bytes.Equal(got, want) {
			t.Error("sieved read data mismatch")
		}
		for _, d := range decs {
			if !d.UseSieve {
				t.Error("mode Always must sieve")
			}
		}
		if stats.SievedWins != stats.Windows {
			t.Errorf("stats: %+v", stats)
		}
	})
}

func TestReadCorrectnessIndividual(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		content := pattern(1 << 20)
		f.WriteAt(p, 0, content)
		accs := strided(1000, 64, 700, 3000)
		got, _ := Read(p, f, accs, params, Never, nil)
		var want []byte
		for _, a := range accs {
			want = append(want, content[a.Off:a.End()]...)
		}
		if !bytes.Equal(got, want) {
			t.Error("individual read data mismatch")
		}
	})
}

func TestWriteCorrectnessSievedPreservesSurroundingData(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		content := pattern(1 << 20)
		f.WriteAt(p, 0, content)
		accs := strided(5000, 32, 600, 4096)
		var data []byte
		for i, a := range accs {
			piece := bytes.Repeat([]byte{byte(i + 1)}, int(a.Len))
			data = append(data, piece...)
		}
		Write(p, f, accs, data, params, Always, nil)
		// The written pieces must be in place; the gaps must be intact
		// (the read-modify-write must not clobber them).
		want := append([]byte{}, content...)
		cursor := 0
		for _, a := range accs {
			copy(want[a.Off:a.End()], data[cursor:cursor+int(a.Len)])
			cursor += int(a.Len)
		}
		got := f.ReadAt(p, 0, 1<<20)
		if !bytes.Equal(got, want) {
			t.Error("sieved write corrupted the file")
		}
	})
}

func TestWriteCorrectnessIndividualMatchesSieved(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		fSieve := fs.Open(p, "s")
		fIndiv := fs.Open(p, "i")
		base := pattern(256 << 10)
		fSieve.WriteAt(p, 0, base)
		fIndiv.WriteAt(p, 0, base)
		accs := strided(333, 40, 555, 2222)
		var data []byte
		for i, a := range accs {
			data = append(data, bytes.Repeat([]byte{byte(200 - i)}, int(a.Len))...)
		}
		Write(p, fSieve, accs, data, params, Always, nil)
		Write(p, fIndiv, accs, data, params, Never, nil)
		a := fSieve.ReadAt(p, 0, 256<<10)
		b := fIndiv.ReadAt(p, 0, 256<<10)
		if !bytes.Equal(a, b) {
			t.Error("sieved and individual writes diverge")
		}
	})
}

func TestSievedReadUsesFewerFSCalls(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, pattern(1<<20))
		accs := strided(0, 128, 512, 4096)
		calls0 := fs.Counters.ReadCalls
		Read(p, f, accs, params, Always, nil)
		sievedCalls := fs.Counters.ReadCalls - calls0
		calls0 = fs.Counters.ReadCalls
		Read(p, f, accs, params, Never, nil)
		indivCalls := fs.Counters.ReadCalls - calls0
		if sievedCalls >= indivCalls/10 {
			t.Errorf("sieved used %d calls, individual %d", sievedCalls, indivCalls)
		}
	})
}

func TestAutoModeFollowsModel(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, pattern(2<<20))
		var stats Stats
		// Dense small: should sieve.
		_, decs := Read(p, f, strided(0, 128, 512, 2048), params, Auto, &stats)
		for _, d := range decs {
			if !d.UseSieve {
				t.Error("auto mode should sieve dense window")
			}
		}
		// Sparse large: should not.
		p2 := params
		p2.MaxBuffer = 1 << 40
		_, decs = Read(p, f, strided(0, 2, 4096, 1<<20), p2, Auto, nil)
		for _, d := range decs {
			if d.UseSieve {
				t.Error("auto mode should not sieve sparse window")
			}
		}
	})
}

func TestWindowSplitRespectsMaxBuffer(t *testing.T) {
	accs := strided(0, 100, 1024, 128<<10) // span ~12.8 MB
	wins := new(Plan).planWindows(accs, 4<<20)
	if len(wins) < 3 {
		t.Fatalf("got %d windows, want >=3", len(wins))
	}
	total := 0
	for _, w := range wins {
		total += len(w.accs)
		if w.span.Len > 4<<20 {
			t.Errorf("window span %d exceeds max buffer", w.span.Len)
		}
	}
	if total != 100 {
		t.Errorf("windows cover %d accesses, want 100", total)
	}
}

func TestUnsortedAccessesReturnInRequestOrder(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		content := pattern(64 << 10)
		f.WriteAt(p, 0, content)
		accs := []Access{
			{Off: 30000, Len: 100},
			{Off: 100, Len: 50},
			{Off: 10000, Len: 200},
		}
		got, _ := Read(p, f, accs, params, Always, nil)
		var want []byte
		for _, a := range accs {
			want = append(want, content[a.Off:a.End()]...)
		}
		if !bytes.Equal(got, want) {
			t.Error("out-of-order accesses misassembled")
		}
	})
}

func TestReadPastEOFZeroPadded(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, []byte("abcdef"))
		got, _ := Read(p, f, []Access{{Off: 4, Len: 8}}, params, Never, nil)
		want := []byte{'e', 'f', 0, 0, 0, 0, 0, 0}
		if !bytes.Equal(got, want) {
			t.Errorf("got %v, want %v", got, want)
		}
	})
}

func TestSieveIsFasterForSmallDenseAccesses(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, pattern(2<<20))
		fs.DropCaches(p)
		accs := strided(0, 256, 512, 4096)
		t0 := p.Now()
		Read(p, f, accs, params, Always, nil)
		sieved := p.Now().Sub(t0)
		fs.DropCaches(p)
		t0 = p.Now()
		Read(p, f, accs, params, Never, nil)
		indiv := p.Now().Sub(t0)
		// Uncached, both are disk-bound (read-ahead makes the individual
		// path nearly sequential) — the paper observes the same
		// convergence. Sieving must still not lose.
		if sieved >= indiv {
			t.Errorf("sieved %v should beat individual %v", sieved, indiv)
		}
	})
}

func TestSieveIsMuchFasterWhenCached(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		f.WriteAt(p, 0, pattern(2<<20)) // stays in cache
		accs := strided(0, 256, 512, 4096)
		t0 := p.Now()
		Read(p, f, accs, params, Always, nil)
		sieved := p.Now().Sub(t0)
		t0 = p.Now()
		Read(p, f, accs, params, Never, nil)
		indiv := p.Now().Sub(t0)
		// Cache-resident: per-call overhead dominates, sieving wins big
		// (the regime of the paper's Figure 6/7 "no sync"/"cached").
		if sieved*3 >= indiv {
			t.Errorf("cached: sieved %v should beat individual %v by >3x", sieved, indiv)
		}
	})
}

func TestEmptyAccessList(t *testing.T) {
	eng, fs, params := newFile(t)
	runSim(t, eng, func(p *sim.Proc) {
		f := fs.Open(p, "f")
		data, decs := Read(p, f, nil, params, Auto, nil)
		if data != nil || decs != nil {
			t.Error("empty access list should be a no-op")
		}
		Write(p, f, nil, nil, params, Auto, nil)
	})
}

func TestPropertySieveEquivalentToIndividual(t *testing.T) {
	f := func(offs []uint16, lens []uint8, seed byte) bool {
		if len(offs) == 0 || len(offs) > 40 {
			return true
		}
		eng := sim.NewEngine()
		d := disk.New(eng, "d", disk.DefaultParams())
		fs := localfs.New(eng, d, localfs.DefaultParams())
		params := ModelFromFS(fs, 1300*simnet.MB)
		ok := true
		eng.Go("t", func(p *sim.Proc) {
			base := pattern(128 << 10)
			f1 := fs.Open(p, "sieve")
			f2 := fs.Open(p, "indiv")
			f1.WriteAt(p, 0, base)
			f2.WriteAt(p, 0, base)
			var accs []Access
			var data []byte
			for i, o := range offs {
				l := int64(1)
				if i < len(lens) {
					l = int64(lens[i])%400 + 1
				}
				a := Access{Off: int64(o) % 100000, Len: l}
				accs = append(accs, a)
				data = append(data, bytes.Repeat([]byte{byte(int(seed) + i)}, int(l))...)
			}
			Write(p, f1, accs, data, params, Always, nil)
			Write(p, f2, accs, data, params, Never, nil)
			r1 := f1.ReadAt(p, 0, 128<<10)
			r2 := f2.ReadAt(p, 0, 128<<10)
			if !bytes.Equal(r1, r2) {
				ok = false
			}
			g1, _ := Read(p, f1, accs, params, Always, nil)
			g2, _ := Read(p, f1, accs, params, Never, nil)
			if !bytes.Equal(g1, g2) {
				ok = false
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
