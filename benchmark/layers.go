package main

import (
	"strings"

	"pvfsib/internal/ib"
	"pvfsib/internal/metrics"
	"pvfsib/internal/mpiio"
	"pvfsib/internal/trace"
)

// counts is a flat set of cumulative counters read off a cluster's public
// accessors; the difference of two readings isolates the measured cycles.
type counts map[string]float64

// gatherCounts reads every cumulative counter the virtual-side layer
// metrics derive from. All of them are deterministic counts or virtual ns.
func gatherCounts(b *bench) counts {
	c := counts{}
	s := b.c.Snapshot()
	c["virt_ns"] = float64(b.c.Eng.Now())
	c["sim.events"] = float64(b.c.Eng.Telemetry().TotalEvents())
	c["mpi.bytes_client_client"] = float64(s.BytesClientClient)
	c["pcache.hit"] = float64(s.CacheHits)
	c["pcache.miss"] = float64(s.CacheMisses)
	c["pcache.readahead"] = float64(s.CacheReadAheads)
	c["pcache.wb_bytes"] = float64(s.WriteBehindBytes)
	c["pcache.coalesced_flushes"] = float64(s.CoalescedFlushes)
	c["pcache.lease_reqs"] = float64(s.LeaseReqs)
	c["pcache.lease_recalls"] = float64(s.LeaseRecalls)
	c["pvfs.client.reqs"] = float64(s.ReadReqs + s.WriteReqs)
	c["pvfs.client.bytes_cs"] = float64(s.BytesClientServer)
	c["pvfs.client.retries"] = float64(s.Retries)
	c["pvfs.client.timeouts"] = float64(s.Timeouts)
	c["pvfs.client.fallbacks"] = float64(s.Fallbacks)
	c["pvfs.server.aborts"] = float64(s.ServerAborts)
	c["pvfs.server.restarts"] = float64(s.Restarts)
	c["fault.crashes"] = float64(s.Crashes)
	c["ogr.reg_lookups"] = float64(s.RegLookups)
	c["ogr.registrations"] = float64(s.Registrations)
	c["ogr.deregistrations"] = float64(s.Deregistrations)
	c["ogr.regcache_hits"] = float64(s.RegCacheHits)

	var hc ib.Counters
	for _, cl := range b.c.Clients {
		hc.Add(cl.HCA().Counters)
	}
	for _, srv := range b.c.Servers {
		hc.Add(srv.HCA().Counters)
		c["sieve.windows"] += float64(srv.SieveStats.Windows)
		c["sieve.sieved_windows"] += float64(srv.SieveStats.SievedWins)
		c["sieve.sieved_bytes"] += float64(srv.SieveStats.SievedBytes)
		c["sieve.wanted_bytes"] += float64(srv.SieveStats.WantedBytes)
		fc := srv.FS().Counters
		c["localfs.read_calls"] += float64(fc.ReadCalls)
		c["localfs.write_calls"] += float64(fc.WriteCalls)
		c["localfs.sync_calls"] += float64(fc.SyncCalls)
		c["localfs.bytes_read"] += float64(fc.BytesRead)
		c["localfs.bytes_wrote"] += float64(fc.BytesWrote)
		dc := srv.Disk().Counters
		c["disk.read_ops"] += float64(dc.ReadOps)
		c["disk.write_ops"] += float64(dc.WriteOps)
		c["disk.seeks"] += float64(dc.Seeks)
	}
	c["ib.sends"] = float64(hc.SendMsgs)
	c["ib.rdma_writes"] = float64(hc.RDMAWrites)
	c["ib.rdma_reads"] = float64(hc.RDMAReads)
	c["ib.bytes_out"] = float64(hc.BytesOut)
	c["ib.wr_errors"] = float64(hc.WRErrors)
	c["ib.qp_resets"] = float64(hc.QPResets)
	c["fault.injected_wr"] = float64(b.injected.WRErrors)
	c["fault.injected_drops"] = float64(b.injected.Drops)
	c["fault.injected_reg"] = float64(b.injected.RegFailures)
	return c
}

// ratio is a/b, and 0 when the layer did nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// methodKeys names the per-method bandwidth metrics, indexed by
// mpiio.Method.
var methodKeys = [...]string{
	mpiio.MultipleIO:  "mpiio.virt_mbps.multiple",
	mpiio.DataSieving: "mpiio.virt_mbps.datasieving",
	mpiio.ListIO:      "mpiio.virt_mbps.listio",
	mpiio.ListIOADS:   "mpiio.virt_mbps.listio_ads",
	mpiio.Collective:  "mpiio.virt_mbps.collective",
}

// countMetrics fills in the part of family (a) — the virtual-side per-layer
// metrics of the virt-window cycles — that the span-traced pass yields: the
// counters (identical in every pass) and the stage self times of its span
// profile. The counts cover everything the cycles do, the harness's
// contiguous read-backs included.
func countMetrics(out map[string]metric, traced *pass) {
	d := counts{}
	for k, v := range traced.after {
		d[k] = v - traced.before[k]
	}
	b := traced.b
	ops := float64(len(b.opNs))

	out["mpiio.ops"] = metric{ops, "count"}
	out["mpiio.regions_per_op"] = metric{ratio(float64(b.regions), ops), "count"}
	for m, key := range methodKeys {
		out[key] = metric{ratio(float64(b.methBytes[m])/MB, float64(b.methNs[m])/1e9), "MB/s"}
	}
	for _, name := range []string{
		"mpi.bytes_client_client",
		"pcache.hit", "pcache.miss", "pcache.readahead", "pcache.wb_bytes",
		"pcache.coalesced_flushes", "pcache.lease_reqs", "pcache.lease_recalls",
		"pvfs.client.reqs", "pvfs.client.bytes_cs", "pvfs.client.retries",
		"pvfs.client.timeouts", "pvfs.client.fallbacks", "pvfs.server.aborts", "pvfs.server.restarts",
		"ogr.reg_lookups", "ogr.registrations", "ogr.deregistrations",
		"ib.sends", "ib.rdma_writes", "ib.rdma_reads", "ib.bytes_out", "ib.wr_errors", "ib.qp_resets",
		"sieve.windows", "sieve.sieved_windows",
		"localfs.read_calls", "localfs.write_calls", "localfs.sync_calls", "localfs.bytes_read", "localfs.bytes_wrote",
		"disk.read_ops", "disk.write_ops", "disk.seeks",
		"fault.injected_wr", "fault.injected_drops", "fault.injected_reg", "fault.crashes",
		"sim.events",
	} {
		unit := "count"
		if strings.Contains(name, "bytes") {
			unit = "B"
		}
		out[name] = metric{d[name], unit}
	}
	out["mpi.exchange_share"] = metric{ratio(d["mpi.bytes_client_client"], d["pvfs.client.bytes_cs"]), "ratio"}
	out["pcache.hit_ratio"] = metric{ratio(d["pcache.hit"], d["pcache.hit"]+d["pcache.miss"]), "ratio"}
	out["pvfs.client.regions_per_req"] = metric{ratio(float64(b.regions), d["pvfs.client.reqs"]), "count"}
	out["ogr.regcache_hit_ratio"] = metric{ratio(d["ogr.regcache_hits"], d["ogr.reg_lookups"]), "ratio"}
	out["sieve.useful_ratio"] = metric{ratio(d["sieve.wanted_bytes"], d["sieve.sieved_bytes"]), "ratio"}
	out["sim.events_per_op"] = metric{ratio(d["sim.events"], ops), "count"}

	// Stage self times and the accounting check, from the span profile.
	prof := traced.tracer.Profile()
	stage := func(name string, st trace.Stage) { out[name] = metric{float64(prof.Stage[st].Ns), "ns"} }
	stage("ogr.reg_virt_ns", trace.StageReg)
	stage("ib.pack_virt_ns", trace.StagePack)
	stage("simnet.wire_virt_ns", trace.StageWire)
	stage("pvfs.server.queue_virt_ns", trace.StageQueue)
	stage("sieve.virt_ns", trace.StageSieve)
	stage("disk.virt_ns", trace.StageDisk)
	stage("trace.other_virt_ns", trace.StageOther)
	var rootNs int64
	for _, sp := range traced.tracer.Spans() {
		if sp.Parent == 0 && sp.Req != 0 {
			rootNs += sp.Dur()
		}
	}
	out["trace.root_p99_ms"] = metric{float64(prof.Latency.Quantile(0.99)) / 1e6, "ms"}
	out["trace.max_inflight"] = metric{float64(prof.MaxInflight()), "count"}
	out["trace.self_over_root"] = metric{ratio(float64(prof.TotalNs()), float64(rootNs)), "ratio"}

}

// gaugeMetrics fills in the rest of family (a) from the metered pass: gauge
// high-water marks and busy shares out of the metrics registry.
func gaugeMetrics(out map[string]metric, metered *pass) {
	mb := metered.b
	mx := metered.registry
	melapsed := metered.after["virt_ns"] - metered.before["virt_ns"]
	var clients, servers, disks, nodes []string
	for _, cl := range mb.c.Clients {
		clients = append(clients, cl.Node().Name)
	}
	for _, srv := range mb.c.Servers {
		servers = append(servers, srv.HCA().Node().Name)
		disks = append(disks, srv.Disk().Name())
	}
	nodes = append(append(nodes, clients...), servers...)
	out["pcache.resident_high"] = metric{maxHigh(mx, clients, "pcache.resident"), "count"}
	out["pvfs.client.backoff_virt_ns"] = metric{float64(mx.Current("rpc.backoff")), "ns"}
	out["ib.sendq_high"] = metric{maxHigh(mx, nodes, "ib.sendq"), "count"}
	out["ib.pinned_bytes_high"] = metric{maxHigh(mx, nodes, "ib.pinned.bytes"), "B"}
	out["simnet.tx_bytes"] = metric{float64(mx.Current("net.tx.bytes")), "B"}
	out["simnet.tx_busy_share"] = metric{ratio(maxBusy(mx, nodes, "net.tx.busy"), melapsed), "ratio"}
	out["simnet.inflight_high"] = metric{maxHigh(mx, nodes, "net.inflight"), "count"}
	out["pvfs.server.dispatch_queue_high"] = metric{maxHigh(mx, servers, "srv.dispatch.queue"), "count"}
	out["pvfs.server.io_queue_high"] = metric{maxHigh(mx, servers, "srv.io.queue"), "count"}
	out["pvfs.server.io_busy_share"] = metric{ratio(maxBusy(mx, servers, "srv.io.busy"), melapsed), "ratio"}
	out["disk.busy_share"] = metric{ratio(maxBusy(mx, disks, "disk.busy"), melapsed), "ratio"}
	out["disk.queue_high"] = metric{maxHigh(mx, disks, "disk.queue"), "count"}
}

// maxHigh is the largest high-water mark of the named gauge over nodes.
func maxHigh(mx *metrics.Registry, nodes []string, name string) float64 {
	var hi int64
	for _, n := range nodes {
		if h := mx.Gauge(n, name).High(); h > hi {
			hi = h
		}
	}
	return float64(hi)
}

// maxBusy is the largest busy-ns total of the named series over nodes.
func maxBusy(mx *metrics.Registry, nodes []string, name string) float64 {
	var hi int64
	for _, n := range nodes {
		if t := mx.Busy(n, name).Total(); t > hi {
			hi = t
		}
	}
	return float64(hi)
}

// harnessMetrics fills in the harness's own host-clock split from its
// spans, and the process's peak resident set.
func harnessMetrics(out map[string]metric, spans *hostSpans) {
	self := spans.selfSeconds()
	out["harness.host_s.build"] = metric{self["build"], "s"}
	out["harness.host_s.materialize"] = metric{self["materialize"] + self["setup"], "s"}
	out["harness.host_s.run"] = metric{self["run"] + self["cycle"], "s"}
	out["harness.host_s.verify"] = metric{self["verify"] + self["final-verify"], "s"}
	out["harness.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}
