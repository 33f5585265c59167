package sieve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"pvfsib/internal/disk"
	"pvfsib/internal/localfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// The flat-file reference model: a file is a []byte, a list read returns
// model[Off:End) per access with zeros past end of file, and a list write
// applies its pieces in (Off, Len, request position) order — the order the
// daemon services them, so of duplicates the later one wins — extending the
// file with zeros as needed. checkModel holds Read, ReadInto and Write to it
// with a read destination that arrives filled with 0xA5 and a Plan every
// earlier case has used, and to the same calls, decisions and bytes without
// either. refPlanWindows is the window planner as it was before it built in a
// Plan: every case's windows must equal its, element for element.

const (
	modelWritten = 40 << 10 // initial file size
	modelHoleLo  = 12 << 10 // [modelHoleLo, modelHoleHi) is never written
	modelHoleHi  = 20 << 10
	dirty        = 0xA5
)

// dirtyBuf returns n bytes of 0xA5: a read destination whose every byte the
// read must overwrite.
func dirtyBuf(n int) []byte { return bytes.Repeat([]byte{dirty}, n) }

// modelOutcome is what one run leaves behind.
type modelOutcome struct {
	read      []byte
	file      []byte
	decisions []Decision
	counters  localfs.Counters
}

// runModelCase services accs against a fresh copy of the initial file: reads
// through Read without a plan, through ReadInto into a dirty buffer with one.
func runModelCase(t testing.TB, accs []Access, data []byte, maxBuffer int64, mode Mode, write bool, plan *Plan) modelOutcome {
	t.Helper()
	eng := sim.NewEngine()
	fs := localfs.New(eng, disk.New(eng, "d", disk.DefaultParams()), localfs.DefaultParams())
	params := ModelFromFS(fs, 1300*simnet.MB)
	params.MaxBuffer = maxBuffer
	params.Plan = plan
	var out modelOutcome
	eng.Go("model", func(p *sim.Proc) {
		f := fs.Open(p, "f")
		base := pattern(modelWritten)
		f.WriteAt(p, 0, base[:modelHoleLo])
		f.WriteAt(p, modelHoleHi, base[modelHoleHi:])
		fs.Counters = localfs.Counters{}
		switch {
		case write:
			out.decisions = Write(p, f, accs, data, params, mode, nil)
		case plan == nil:
			out.read, out.decisions = Read(p, f, accs, params, mode, nil)
		default:
			out.read = dirtyBuf(len(data))
			out.decisions = ReadInto(p, f, accs, out.read, params, mode, nil)
		}
		out.decisions = slices.Clone(out.decisions) // the plan's next request reuses them
		out.counters = fs.Counters
		out.file = f.ReadAt(p, 0, f.Size())
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkModel runs one access list through the sieve with and without a
// dirty destination and a used plan, and compares both with the flat model.
func checkModel(t testing.TB, accs []Access, maxBuffer int64, mode Mode, write bool) {
	t.Helper()
	var total int64
	for _, a := range accs {
		total += a.Len
	}
	data := make([]byte, total)
	for i := range data {
		data[i] = byte(1 + i%251)
	}

	model := pattern(modelWritten)
	clear(model[modelHoleLo:modelHoleHi])
	var wantRead []byte
	if write {
		pieces := make([]localfs.Piece, len(accs))
		var pos int64
		for i, a := range accs {
			pieces[i] = localfs.Piece{Off: a.Off, Len: a.Len, Pos: pos}
			pos += a.Len
		}
		slices.SortFunc(pieces, func(a, b localfs.Piece) int {
			return cmp.Or(cmp.Compare(a.Off, b.Off), cmp.Compare(a.Len, b.Len), cmp.Compare(a.Pos, b.Pos))
		})
		for _, pc := range pieces {
			if grow := pc.Off + pc.Len - int64(len(model)); grow > 0 {
				model = append(model, make([]byte, grow)...)
			}
			copy(model[pc.Off:pc.Off+pc.Len], data[pc.Pos:])
		}
	} else {
		wantRead = make([]byte, 0, total)
		for _, a := range accs {
			slot := make([]byte, a.Len)
			if a.Off < int64(len(model)) {
				copy(slot, model[a.Off:])
			}
			wantRead = append(wantRead, slot...)
		}
	}

	checkWindows(t, accs, maxBuffer)
	plain := runModelCase(t, accs, data, maxBuffer, mode, write, nil)
	pooled := runModelCase(t, accs, data, maxBuffer, mode, write, &usedPlan)
	for _, run := range []struct {
		name string
		got  modelOutcome
	}{{"no plan", plain}, {"used plan, dirty buffer", pooled}} {
		if !bytes.Equal(run.got.file, model) {
			t.Errorf("%s: file differs from the model (first at %d, sizes %d vs %d)",
				run.name, firstDiff(run.got.file, model), len(run.got.file), len(model))
		}
		if !write && !bytes.Equal(run.got.read, wantRead) {
			t.Errorf("%s: read differs from the model (first at %d)", run.name, firstDiff(run.got.read, wantRead))
		}
	}
	if !slices.Equal(plain.decisions, pooled.decisions) {
		t.Errorf("decisions differ with a used plan:\n%+v\n%+v", plain.decisions, pooled.decisions)
	}
	if plain.counters != pooled.counters {
		t.Errorf("file-system calls differ with a used plan: %+v vs %+v", plain.counters, pooled.counters)
	}
}

// usedPlan is the scratch every case plans in, so each meets whatever the
// cases before it left behind.
var usedPlan Plan

// refPlanWindows is planWindows as it was when it allocated its lists.
func refPlanWindows(accs []Access, maxBuffer int64) []window {
	sorted := make([]localfs.Piece, len(accs))
	var pos int64
	for i, a := range accs {
		sorted[i] = localfs.Piece{Off: a.Off, Len: a.Len, Pos: pos}
		pos += a.Len
	}
	slices.SortFunc(sorted, func(a, b localfs.Piece) int {
		return cmp.Or(cmp.Compare(a.Off, b.Off), cmp.Compare(a.Len, b.Len), cmp.Compare(a.Pos, b.Pos))
	})
	var wins []window
	start, span := 0, Access{sorted[0].Off, sorted[0].Len}
	for i := 1; i < len(sorted); i++ {
		a := Access{sorted[i].Off, sorted[i].Len}
		end := max(a.End(), span.End())
		if maxBuffer > 0 && end-span.Off > maxBuffer {
			wins = append(wins, window{sorted[start:i], span})
			start, span = i, a
			continue
		}
		span.Len = end - span.Off
	}
	return append(wins, window{sorted[start:], span})
}

// checkWindows compares the windows planned in the used scratch with the
// reference's.
func checkWindows(t testing.TB, accs []Access, maxBuffer int64) {
	t.Helper()
	if len(accs) == 0 {
		return
	}
	got, want := usedPlan.planWindows(accs, maxBuffer), refPlanWindows(accs, maxBuffer)
	same := slices.EqualFunc(got, want, func(a, b window) bool {
		return a.span == b.span && slices.Equal(a.accs, b.accs)
	})
	if !same {
		t.Errorf("windows differ from the reference for %v, MaxBuffer %d:\n%+v\n%+v", accs, maxBuffer, got, want)
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

var modelCases = []struct {
	name      string
	accs      []Access
	maxBuffer int64
}{
	{"past EOF", []Access{{Off: modelWritten - 100, Len: 300}, {Off: modelWritten + 5000, Len: 700}, {Off: modelWritten + 9000, Len: 1}}, 4 << 20},
	{"holes inside a window", strided(modelHoleLo-3000, 24, 500, 700), 4 << 20},
	{"window ends beyond EOF", strided(modelWritten-6000, 12, 400, 1500), 4 << 20},
	{"duplicates and overlaps", []Access{{Off: 100, Len: 50}, {Off: 100, Len: 50}, {Off: 120, Len: 200}, {Off: 100, Len: 50}, {Off: 90, Len: 20}, {Off: 100, Len: 10}}, 4 << 20},
	{"unsorted", []Access{{Off: 30000, Len: 100}, {Off: 100, Len: 50}, {Off: 50000, Len: 64}, {Off: 10000, Len: 200}, {Off: 13000, Len: 9000}}, 4 << 20},
	{"MaxBuffer below one access", []Access{{Off: 0, Len: 3000}, {Off: 3500, Len: 100}, {Off: 3700, Len: 100}, {Off: 39000, Len: 2500}}, 512},
}

func TestSieveModelTable(t *testing.T) {
	for _, tc := range modelCases {
		for _, mode := range []Mode{Auto, Always, Never} {
			for _, write := range []bool{false, true} {
				checkModel(t, tc.accs, tc.maxBuffer, mode, write)
				if t.Failed() {
					t.Fatalf("case %q mode %d write %t", tc.name, mode, write)
				}
			}
		}
	}
}

func TestSieveModelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20030901))
	for iter := 0; iter < 60; iter++ {
		accs := make([]Access, 1+rng.Intn(40))
		for i := range accs {
			accs[i] = Access{Off: rng.Int63n(64 << 10), Len: 1 + rng.Int63n(3000)}
			if i > 0 && rng.Intn(8) == 0 {
				accs[i] = accs[rng.Intn(i)] // duplicate
			}
		}
		maxBuffer := modelBuffers[rng.Intn(len(modelBuffers))]
		mode, write := Mode(rng.Intn(3)), rng.Intn(2) == 0
		checkModel(t, accs, maxBuffer, mode, write)
		if t.Failed() {
			t.Fatalf("iteration %d: accs %v maxBuffer %d mode %d write %t", iter, accs, maxBuffer, mode, write)
		}
	}
}

// encodeModelCase and decodeModelCase map an access list to the fuzzer's
// bytes: mode, write flag and MaxBuffer selector, then (offset, length)
// pairs of little-endian uint16, lengths folded into [1, 3000].
func encodeModelCase(accs []Access, maxBuffer int64, mode Mode, write bool) []byte {
	enc := []byte{byte(mode), 0, byte(slices.Index(modelBuffers, maxBuffer))}
	if write {
		enc[1] = 1
	}
	for _, a := range accs {
		enc = binary.LittleEndian.AppendUint16(enc, uint16(a.Off))
		enc = binary.LittleEndian.AppendUint16(enc, uint16(a.Len-1))
	}
	return enc
}

var modelBuffers = []int64{512, 4 << 10, 64 << 10, 4 << 20}

func decodeModelCase(enc []byte) (accs []Access, maxBuffer int64, mode Mode, write bool) {
	mode, write, maxBuffer = Mode(enc[0]%3), enc[1]%2 == 1, modelBuffers[int(enc[2])%len(modelBuffers)]
	for enc = enc[3:]; len(enc) >= 4 && len(accs) < 64; enc = enc[4:] {
		accs = append(accs, Access{
			Off: int64(binary.LittleEndian.Uint16(enc)),
			Len: 1 + int64(binary.LittleEndian.Uint16(enc[2:]))%3000,
		})
	}
	return accs, maxBuffer, mode, write
}

// FuzzSieveModel drives checkModel from encoded access lists.
func FuzzSieveModel(f *testing.F) {
	for _, tc := range modelCases {
		f.Add(encodeModelCase(tc.accs, tc.maxBuffer, Always, true))
		f.Add(encodeModelCase(tc.accs, tc.maxBuffer, Auto, false))
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		if len(enc) < 7 {
			return
		}
		accs, maxBuffer, mode, write := decodeModelCase(enc)
		checkModel(t, accs, maxBuffer, mode, write)
	})
}
