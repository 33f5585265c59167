package bench

import (
	"strings"
	"testing"
)

// The tests below assert the *shape* claims of the paper's evaluation on
// the short-mode sweeps: who wins, by roughly what factor, and where the
// regimes flip. Absolute values are checked loosely (the substrate is a
// simulator, not the authors' testbed).

func TestTable2MatchesPaper(t *testing.T) {
	tbl := shortTable(t, "table2")
	// RDMA write ≈ 6.0µs / 827 MB/s.
	if lat := tbl.CellF(0, "latency_us"); lat < 5.5 || lat > 7 {
		t.Errorf("RDMA write latency = %v µs, want ≈6.0", lat)
	}
	if bwv := tbl.CellF(0, "bandwidth_MB_s"); bwv < 800 || bwv > 840 {
		t.Errorf("RDMA write bandwidth = %v, want ≈827", bwv)
	}
	// RDMA read ≈ 12.4µs.
	if lat := tbl.CellF(1, "latency_us"); lat < 11 || lat > 14 {
		t.Errorf("RDMA read latency = %v µs, want ≈12.4", lat)
	}
	// MPI latency above verbs latency.
	if tbl.CellF(2, "latency_us") <= tbl.CellF(0, "latency_us") {
		t.Error("MPI latency should exceed raw verbs latency")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tbl := shortTable(t, "table3")
	cold, warm := tbl.FindRow("without cache"), tbl.FindRow("with cache")
	if w := tbl.CellF(cold, "write_MB_s"); w < 20 || w > 30 {
		t.Errorf("uncached write = %v, want ≈25", w)
	}
	if r := tbl.CellF(cold, "read_MB_s"); r < 15 || r > 25 {
		t.Errorf("uncached read = %v, want ≈20", r)
	}
	if w := tbl.CellF(warm, "write_MB_s"); w < 270 || w > 320 {
		t.Errorf("cached write = %v, want ≈303", w)
	}
	if r := tbl.CellF(warm, "read_MB_s"); r < 1200 || r > 1450 {
		t.Errorf("cached read = %v, want ≈1391", r)
	}
}

func TestFig3Shape(t *testing.T) {
	tbl := shortTable(t, "fig3")
	last := len(tbl.Rows) - 1 // largest array
	contig := tbl.CellF(last, "contig_noreg")
	multi := tbl.CellF(last, "multiple_noreg")
	packNoReg := tbl.CellF(last, "pack_noreg")
	packReg := tbl.CellF(last, "pack_reg")
	gMult := tbl.CellF(last, "gather_multreg")
	gOne := tbl.CellF(last, "gather_onereg")

	if contig < gOne || contig < multi || contig < packNoReg {
		t.Error("contiguous must be the upper bound")
	}
	if gOne <= gMult {
		t.Errorf("OGR gather (%v) must beat per-row registration (%v)", gOne, gMult)
	}
	if packNoReg <= packReg {
		t.Errorf("pack without registration (%v) must beat pack with (%v)", packNoReg, packReg)
	}
	// pack is copy-bound ≈ 1/(1/1300+1/827) ≈ 505 MB/s.
	if packNoReg < 450 || packNoReg > 560 {
		t.Errorf("pack bandwidth = %v, want ≈505 (copy-bound)", packNoReg)
	}
	// At large sizes gather/OGR must beat pack (the reason for the hybrid).
	if gOne <= packNoReg {
		t.Errorf("at large sizes gather one-reg (%v) must beat pack (%v)", gOne, packNoReg)
	}
	// At the smallest size pack must beat gather one-reg (registration
	// cost dominates).
	if p, g := tbl.CellF(0, "pack_noreg"), tbl.CellF(0, "gather_onereg"); p <= g {
		t.Errorf("at small sizes pack (%v) must beat gather (%v)", p, g)
	}
}

func TestFig4HybridTracksWinner(t *testing.T) {
	tbl := shortTable(t, "fig4")
	for i := 0; i < len(tbl.Rows); i++ {
		pack := tbl.CellF(i, "pack")
		gather := tbl.CellF(i, "gather")
		hybrid := tbl.CellF(i, "hybrid")
		best := pack
		if gather > best {
			best = gather
		}
		if hybrid < 0.8*best {
			t.Errorf("row %v: hybrid %v far below best %v", tbl.Rows[i][0], hybrid, best)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	tbl := shortTable(t, "table4")
	ideal := tbl.FindRow("Ideal")
	indiv := tbl.FindRow("Indiv.")
	ogr := tbl.FindRow("OGR")
	ogrq := tbl.FindRow("OGR+Q")
	// Bandwidth ordering (no sync): Ideal >= OGR > OGR+Q > Indiv.
	bi, bo, bq, bn := tbl.CellF(ideal, "nosync_MB_s"), tbl.CellF(ogr, "nosync_MB_s"),
		tbl.CellF(ogrq, "nosync_MB_s"), tbl.CellF(indiv, "nosync_MB_s")
	if !(bi >= bo && bo > bq && bq > bn) {
		t.Errorf("nosync ordering Ideal(%v) >= OGR(%v) > OGR+Q(%v) > Indiv(%v) violated", bi, bo, bq, bn)
	}
	// Registration counts: 0 / 1 / 11 / one-per-row.
	if tbl.Cell(ideal, "regs") != "0" {
		t.Errorf("Ideal regs = %s, want 0", tbl.Cell(ideal, "regs"))
	}
	if tbl.Cell(ogr, "regs") != "1" {
		t.Errorf("OGR regs = %s, want 1", tbl.Cell(ogr, "regs"))
	}
	if tbl.Cell(ogrq, "regs") != "11" {
		t.Errorf("OGR+Q regs = %s, want 11", tbl.Cell(ogrq, "regs"))
	}
	if tbl.CellF(indiv, "regs") < 100 {
		t.Errorf("Indiv regs = %s, want one per row", tbl.Cell(indiv, "regs"))
	}
	// With sync, disk dominates and the cases converge (within ~25%).
	si, sn := tbl.CellF(ideal, "sync_MB_s"), tbl.CellF(indiv, "sync_MB_s")
	if sn < 0.7*si {
		t.Errorf("sync bandwidths should converge: Ideal %v vs Indiv %v", si, sn)
	}
}

func TestFig6ListIOBeatsMultiple(t *testing.T) {
	tbl := shortTable(t, "fig6")
	for i := range tbl.Rows {
		multi := tbl.CellF(i, "multiple")
		ds := tbl.CellF(i, "datasieving")
		list := tbl.CellF(i, "listio")
		ads := tbl.CellF(i, "listio+ads")
		// DS writes degenerate to multiple I/O.
		if ds < 0.95*multi || ds > 1.05*multi {
			t.Errorf("row %d: DS write (%v) should equal Multiple (%v)", i, ds, multi)
		}
		// List I/O wins by a large factor (paper: 3.5-12x, nosync rows).
		if strings.Contains(tbl.Rows[i][1], "nosync") && list < 2*multi {
			t.Errorf("row %d: list (%v) should dwarf multiple (%v)", i, list, multi)
		}
		// ADS at small arrays should help or at least not hurt much.
		if ads < 0.9*list {
			t.Errorf("row %d: ADS (%v) markedly below plain list (%v)", i, ads, list)
		}
	}
}

func TestFig7ReadShape(t *testing.T) {
	tbl := shortTable(t, "fig7")
	for i := range tbl.Rows {
		multi := tbl.CellF(i, "multiple")
		list := tbl.CellF(i, "listio")
		ads := tbl.CellF(i, "listio+ads")
		if list <= multi {
			t.Errorf("row %d: list (%v) should beat multiple (%v)", i, list, multi)
		}
		if strings.Contains(tbl.Rows[i][1], "cached") && !strings.Contains(tbl.Rows[i][1], "un") {
			if ads <= list {
				t.Errorf("row %d: cached ADS (%v) should beat plain list (%v)", i, ads, list)
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tbl := shortTable(t, "fig8")
	w, r := tbl.FindRow("write"), tbl.FindRow("read")
	// ADS beats Multiple by a large factor both ways.
	if tbl.CellF(w, "listio+ads") < 1.5*tbl.CellF(w, "multiple") {
		t.Errorf("write: ADS (%v) vs multiple (%v)", tbl.CellF(w, "listio+ads"), tbl.CellF(w, "multiple"))
	}
	if tbl.CellF(r, "listio+ads") < 3*tbl.CellF(r, "multiple") {
		t.Errorf("read: ADS (%v) vs multiple (%v)", tbl.CellF(r, "listio+ads"), tbl.CellF(r, "multiple"))
	}
	// ADS >= plain list I/O for both.
	if tbl.CellF(w, "listio+ads") < 0.95*tbl.CellF(w, "listio") {
		t.Error("write: ADS should not lose to plain list I/O")
	}
	if tbl.CellF(r, "listio+ads") <= tbl.CellF(r, "listio") {
		t.Error("read: ADS should beat plain list I/O")
	}
}

func TestFig9DiskBoundShape(t *testing.T) {
	tbl := shortTable(t, "fig9")
	w, r := tbl.FindRow("write"), tbl.FindRow("read")
	// Writes: ADS still ahead of multiple.
	if tbl.CellF(w, "listio+ads") <= tbl.CellF(w, "multiple") {
		t.Error("disk-bound write: ADS should still beat multiple")
	}
	// Reads: DS becomes competitive with ADS (within 2x either way).
	ds, ads := tbl.CellF(r, "datasieving"), tbl.CellF(r, "listio+ads")
	if ds < ads/2 || ds > ads*2 {
		t.Errorf("disk-bound read: DS (%v) and ADS (%v) should be comparable", ds, ads)
	}
}

func TestTable5Shape(t *testing.T) {
	tbl := shortTable(t, "table5")
	get := func(label string) float64 { return tbl.CellF(tbl.FindRow(label), "time_s") }
	noio := get("no I/O")
	multiple := get("Multiple I/O")
	list := get("List I/O")
	ads := get("List I/O with ADS")
	ds := get("Data Sieving")
	if multiple < noio || list < noio || ads < noio {
		t.Error("I/O must not make the run faster than no I/O")
	}
	if multiple < list {
		t.Errorf("Multiple (%v) should cost at least as much as List (%v)", multiple, list)
	}
	if ads > list*1.05 {
		t.Errorf("ADS (%v) should not exceed plain List (%v)", ads, list)
	}
	if ds < list {
		t.Errorf("DS writes degenerate to multiple, total (%v) should exceed List (%v)", ds, list)
	}
}

func TestTable6Shape(t *testing.T) {
	tbl := shortTable(t, "table6")
	req := tbl.FindRow("req #")
	fsr := tbl.FindRow("read #")
	fsw := tbl.FindRow("write #")
	cellF := func(row int, col string) float64 { return tbl.CellF(row, col) }
	// List I/O slashes request counts versus Multiple I/O.
	if cellF(req, "List") >= cellF(req, "Mult.")/4 {
		t.Errorf("List req# (%v) should be far below Multiple (%v)", cellF(req, "List"), cellF(req, "Mult."))
	}
	// ADS slashes file accesses versus plain list I/O.
	if cellF(fsr, "ADS") >= cellF(fsr, "List")/2 {
		t.Errorf("ADS read# (%v) should be far below List (%v)", cellF(fsr, "ADS"), cellF(fsr, "List"))
	}
	if cellF(fsw, "ADS") >= cellF(fsw, "List")/2 {
		t.Errorf("ADS write# (%v) should be far below List (%v)", cellF(fsw, "ADS"), cellF(fsw, "List"))
	}
	// Client data sieving moves more data than any list method.
	csRow := tbl.FindRow("c/s comm (MB)")
	if cellF(csRow, "DS") <= cellF(csRow, "List") {
		t.Error("DS should move extra (unwanted) data over the network")
	}
	// Only collective I/O talks client-to-client.
	ccRow := tbl.FindRow("c/c comm (MB)")
	if cellF(ccRow, "Coll.") <= 0 {
		t.Error("collective I/O must exchange data between compute nodes")
	}
	if cellF(ccRow, "List") != 0 {
		t.Error("list I/O must not talk client-to-client")
	}
}

func TestAblationSGEShape(t *testing.T) {
	tbl := shortTable(t, "ablation-sge")
	// Bandwidth must not decrease as the SGE limit grows.
	prev := 0.0
	for i := range tbl.Rows {
		cur := tbl.CellF(i, "gather_onereg_MB_s")
		if cur < prev*0.99 {
			t.Errorf("bandwidth decreased when SGE limit grew: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestAblationOGRGroupingShape(t *testing.T) {
	tbl := shortTable(t, "ablation-ogrgroup")
	for i := range tbl.Rows {
		indiv := tbl.CellF(i, "individual")
		span := tbl.CellF(i, "whole_span")
		model := tbl.CellF(i, "cost_model")
		if model > indiv {
			t.Errorf("row %d: cost model (%v µs) worse than individual (%v µs)", i, model, indiv)
		}
		if model > span*1.01 {
			t.Errorf("row %d: cost model (%v µs) worse than whole-span (%v µs)", i, model, span)
		}
		if i == 1 && span <= model {
			t.Errorf("with big gaps, whole-span (%v) should cost more than the cost model (%v)", span, model)
		}
	}
}

func TestAblationADSModelTracksWinner(t *testing.T) {
	tbl := shortTable(t, "ablation-adsmodel")
	for i := range tbl.Rows {
		never := tbl.CellF(i, "never")
		always := tbl.CellF(i, "always")
		auto := tbl.CellF(i, "model(auto)")
		best := never
		if always > best {
			best = always
		}
		if auto < 0.85*best {
			t.Errorf("row %d: auto (%v) far below best of never (%v)/always (%v)", i, auto, never, always)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, err := Lookup("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nonsense"); err == nil {
		t.Error("expected error for unknown id")
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.sweep == nil || e.Title == "" || e.table == "" || len(e.header) == 0 {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tbl.Add("v", 1.25)
	tbl.Note("hello %d", 7)
	s := tbl.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "1.2", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
	if tbl.Cell(0, "bb") != "1.2" || tbl.CellF(0, "bb") != 1.2 {
		t.Error("Cell/CellF lookup failed")
	}
	if tbl.Cell(5, "a") != "" || tbl.Cell(0, "zz") != "" {
		t.Error("out-of-range Cell should be empty")
	}
	if tbl.FindRow("v") != 0 || tbl.FindRow("w") != -1 {
		t.Error("FindRow")
	}
}

// TestTableAddRejectsRaggedRow: a row wider or narrower than the header
// used to panic in String (too wide) or pass misaligned into the JSON and
// CSV artifacts; Add now refuses both.
func TestTableAddRejectsRaggedRow(t *testing.T) {
	for _, cells := range [][]any{{"v"}, {"v", 1.0, "extra"}} {
		tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "table x") {
					t.Errorf("Add of %d cells under a 2-column header: got panic %q, want one naming the table", len(cells), msg)
				}
			}()
			tbl.Add(cells...)
		}()
		if len(tbl.Rows) != 0 {
			t.Errorf("ragged row of %d cells was appended", len(cells))
		}
	}
}

func TestAblationNetworkShape(t *testing.T) {
	tbl := shortTable(t, "ablation-network")
	ibSpread := tbl.CellF(0, "best/worst")
	tcpSpread := tbl.CellF(1, "best/worst")
	if ibSpread <= tcpSpread {
		t.Errorf("scheme spread on IB (%v) should exceed conventional (%v)", ibSpread, tcpSpread)
	}
	if tcpSpread > 1.3 {
		t.Errorf("conventional-network spread %v should be near 1", tcpSpread)
	}
	// The full verbs stack must beat the stream stack.
	verbs := tbl.CellF(tbl.FindRow("PVFS verbs+hybrid"), "gather_onereg")
	stream := tbl.CellF(tbl.FindRow("PVFS stream sockets"), "gather_onereg")
	if verbs <= 2*stream {
		t.Errorf("verbs stack (%v) should far outrun stream sockets (%v)", verbs, stream)
	}
}

func TestAblationRegThrashShape(t *testing.T) {
	tbl := shortTable(t, "ablation-regthrash")
	// Small cache: individual thrashes (0 hits, lower bandwidth), OGR fine.
	small, large := 0, len(tbl.Rows)-1
	if tbl.CellF(small, "indiv_hits") != 0 {
		t.Errorf("small cache should give individual registration no hits, got %v",
			tbl.Cell(small, "indiv_hits"))
	}
	if tbl.CellF(small, "ogr_hits") == 0 {
		t.Error("OGR's single region should still hit in a small cache")
	}
	if tbl.CellF(small, "individual+cache") >= tbl.CellF(small, "ogr+cache") {
		t.Error("thrashing individual registration should lose to OGR")
	}
	// Large cache: individual recovers.
	if tbl.CellF(large, "indiv_hits") == 0 {
		t.Error("large cache should let individual registration hit")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "b,c"}}
	tbl.Add("v\"q", 1.5)
	csv := tbl.CSV()
	want := "a,\"b,c\"\n\"v\"\"q\",1.5\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestExtraNoncontigShape(t *testing.T) {
	tbl := shortTable(t, "extra-noncontig")
	for i := range tbl.Rows {
		multi := tbl.CellF(i, "multiple")
		list := tbl.CellF(i, "listio")
		ads := tbl.CellF(i, "listio+ads")
		if list <= multi {
			t.Errorf("row %d: list (%v) should beat multiple (%v)", i, list, multi)
		}
		if ads < list {
			t.Errorf("row %d: ADS (%v) should not lose to plain list (%v)", i, ads, list)
		}
	}
}

func TestExtraDiskSpeedShape(t *testing.T) {
	tbl := shortTable(t, "extra-diskspeed")
	for i := range tbl.Rows {
		never := tbl.CellF(i, "never")
		always := tbl.CellF(i, "always")
		auto := tbl.CellF(i, "model(auto)")
		best := never
		if always > best {
			best = always
		}
		// The conservative model may give up some of the best near the
		// crossover, but must stay within 25%.
		if auto < 0.75*best {
			t.Errorf("row %s: auto (%v) far below best of never (%v)/always (%v)",
				tbl.Rows[i][0], auto, never, always)
		}
	}
}

func TestExtraScalingShape(t *testing.T) {
	tbl := shortTable(t, "extra-scaling")
	first, last := 0, len(tbl.Rows)-1
	for _, col := range []string{"contig_write", "contig_read", "list_write", "list_read"} {
		if tbl.CellF(last, col) <= tbl.CellF(first, col) {
			t.Errorf("%s does not scale with servers: %v -> %v",
				col, tbl.CellF(first, col), tbl.CellF(last, col))
		}
	}
}

func TestExtraAppAwareShape(t *testing.T) {
	tbl := shortTable(t, "extra-appaware")
	explicit := tbl.CellF(tbl.FindRow("explicit (4.2.1-1)"), "agg_MB_s")
	declared := tbl.CellF(tbl.FindRow("declared (4.2.1-2)"), "agg_MB_s")
	ogrBW := tbl.CellF(tbl.FindRow("OGR (chosen)"), "agg_MB_s")
	cached := tbl.CellF(tbl.FindRow("OGR + cache"), "agg_MB_s")
	// OGR must come within 15% of the app-aware schemes without app
	// changes; with the cache it matches them.
	best := explicit
	if declared > best {
		best = declared
	}
	if ogrBW < 0.85*best {
		t.Errorf("OGR (%v) too far below app-aware best (%v)", ogrBW, best)
	}
	if cached < 0.95*best {
		t.Errorf("OGR+cache (%v) should match app-aware best (%v)", cached, best)
	}
	// Explicit performs zero registrations in steady state.
	if tbl.CellF(tbl.FindRow("explicit (4.2.1-1)"), "regs") != 0 {
		t.Error("explicit scheme should not register during the run")
	}
}

func TestExtraQueryMethodShape(t *testing.T) {
	tbl := shortTable(t, "extra-querymethod")
	syscall := tbl.CellF(tbl.FindRow("custom syscall"), "reg_time_us")
	proc := tbl.CellF(tbl.FindRow("/proc/pid/maps"), "reg_time_us")
	if proc <= syscall {
		t.Errorf("/proc query (%v µs) should cost more than the syscall (%v µs)", proc, syscall)
	}
	// All methods find the same 11 allocated runs.
	for i := range tbl.Rows {
		if tbl.CellF(i, "regs") != 11 {
			t.Errorf("row %d registered %v regions, want 11", i, tbl.CellF(i, "regs"))
		}
	}
}

func TestFaultsShape(t *testing.T) {
	tbl := runSeeded(t, "faults", 7)
	if len(tbl.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (two rates + storm)", len(tbl.Rows))
	}
	clean := tbl.CellF(0, "time_ms")
	faulty := tbl.CellF(1, "time_ms")
	if clean <= 0 || faulty <= clean {
		t.Errorf("faults must cost time: clean=%vms faulty=%vms", clean, faulty)
	}
	if tbl.CellF(0, "retries") != 0 {
		t.Error("fault-free row must show zero retries")
	}
	if tbl.CellF(1, "retries") == 0 {
		t.Error("faulty row shows no retries — injection not exercised")
	}
	storm := tbl.FindRow("storm")
	if storm < 0 || tbl.CellF(storm, "retries") == 0 {
		t.Error("storm row missing or shows no recovery work")
	}
}

// runSeeded runs experiment id's short sweep with the given seed.
func runSeeded(t *testing.T, id string, seed int64) *Table {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(RunOpts{Short: true, Seed: seed})
}

// TestFaultsDeterministic re-runs the sweep with one seed and demands the
// identical table, cell for cell.
func TestFaultsDeterministic(t *testing.T) {
	a := runSeeded(t, "faults", 42)
	b := runSeeded(t, "faults", 42)
	if a.JSON() != b.JSON() {
		t.Errorf("same seed produced different tables:\n%s\nvs\n%s", a.JSON(), b.JSON())
	}
}
