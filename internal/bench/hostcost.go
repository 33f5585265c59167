package bench

import (
	"strconv"
)

// HostCost is the host clock as exact counts: it runs every Registry
// experiment, one after another, and reports what each cost the host — the
// engine's events, process switches and inline wakes, the bytes every layer
// copied, and the bytes cleared while building clusters and after — in all,
// and all but the set-up also per request and per payload byte. The counts
// are functions of (-short, -seed, -shards) like the tables (-parallel only
// spreads an experiment's cells over workers; the sums are the same), so the
// table is a committed artifact, BENCH_hostcost.json, in which a reintroduced
// relay or copy shows as a diff. It describes the host, not the paper's
// cluster, so it is not in Registry and `-run all` does not print it.
var HostCost = Experiment{
	ID:    "hostcost",
	Title: "Host cost of every experiment in exact counts (not part of 'all')",
	table: "Host cost per experiment: engine events, process switches, inline wakes, bytes copied, bytes cleared in set-up and after",
	header: []string{"experiment", "requests", "payload_bytes",
		"events", "resumes", "inline_wakes", "bytes_copied", "setup_cleared", "steady_cleared",
		"events/req", "resumes/req", "inline_wakes/req", "copied/req", "cleared/req",
		"events/byte", "resumes/byte", "inline_wakes/byte", "copied/byte", "cleared/byte"},
	notes: []string{
		"requests = read, write and sync request messages clients sent to servers; payload_bytes = data bytes between clients and servers; '-' where an experiment has none",
		"bytes_copied: AddrSpace.Write/ReadInto/Copy, localfs copyIn/copyOut, mpi.Send's pooled copy; bytes cleared: fresh mapping storage (made at a mapping's first access), extents and scratch buffers whole, recycled storage where it was dirty, holes read as zeros",
		"setup_cleared: what building each cell's cluster and MPI world cleared; steady_cleared: everything after, and what cleared/req and cleared/byte divide",
		"the harness's own pattern fill and verification reads go through AddrSpace and are counted; table2, table3, fig3, ablation-ogrgroup and extra-querymethod build no cluster and fold the engine plus the address spaces or file system they use",
	},
	sweep: func(o RunOpts) []group {
		return each([]string{"registry"},
			func(string) []HostWork { return costOf(Registry, o, nil) },
			func(t *Table, _ string, work []HostWork) {
				for i, w := range work {
					t.Add(hostCostRow(Registry[i].ID, w)...)
				}
			})
	},
}

// costOf runs the experiments at o, one after another, and returns what each
// cost the host; keep, when set, is handed every table. Nothing else may
// retire cells meanwhile: a cost is the difference of two Retired readings.
func costOf(exps []Experiment, o RunOpts, keep func(*Table)) []HostWork {
	// As in a new process: table5 runs BTIO, table6 reuses it.
	btioMu.Lock()
	clear(btioMemo)
	btioMu.Unlock()
	out := make([]HostWork, len(exps))
	for i, e := range exps {
		before := Retired()
		t := e.Run(o)
		out[i] = Retired().sub(before)
		if keep != nil {
			keep(t)
		}
	}
	return out
}

// hostCostRow renders one experiment's counts, then each but the set-up per
// request and per payload byte.
func hostCostRow(id string, w HostWork) []any {
	steady := w.BytesCleared - w.SetupCleared
	row := []any{id, w.Requests, w.PayloadBytes, w.Events, w.Resumes, w.InlineWakes, w.BytesCopied, w.SetupCleared, steady}
	counts := []int64{w.Events, w.Resumes, w.InlineWakes, w.BytesCopied, steady}
	for _, per := range []int64{w.Requests, w.PayloadBytes} {
		for _, c := range counts {
			if per == 0 {
				row = append(row, "-")
			} else {
				row = append(row, strconv.FormatFloat(float64(c)/float64(per), 'g', 6, 64))
			}
		}
	}
	return row
}
