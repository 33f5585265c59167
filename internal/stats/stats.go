// Package stats defines cluster-wide operation counters, the quantities the
// paper reports in Table 4 (registration counts and overheads) and Table 6
// (request, registration, cache-hit, and disk-call counts, plus bytes moved
// between node classes). Every field is an additive int64 counter; gauges and
// time decompositions live on their own planes (trace profile, metrics).
package stats

import (
	"fmt"
	"reflect"

	"pvfsib/internal/sim"
)

// Acct is the protocol-level counter set each entity (client, server,
// manager) tallies for itself; higher layers (MPI) add client-to-client
// bytes. A new protocol counter is one field here plus its String mention.
type Acct struct {
	// Client request messages by kind (requests, not replies).
	OpenReqs, ReadReqs, WriteReqs, SyncReqs int64

	// Data payload bytes between node classes.
	BytesClientServer, BytesClientClient int64

	// Recovery-layer activity (all zero without a fault plane attached).
	Retries          int64 // chunk/RPC re-issues after a failure or timeout
	Timeouts         int64 // client waits that expired
	Fallbacks        int64 // Gather/Scatter operations degraded to Pack/Unpack
	ServerAborts     int64 // requests the daemons abandoned mid-protocol
	Crashes          int64 // scheduled daemon crashes executed
	Restarts         int64 // daemon restarts completed
	IodRegistrations int64 // manager re-registrations after restart

	// Client page-cache and lease activity (all zero without internal/pcache).
	CacheHits        int64 // list operations served entirely from resident pages
	CacheMisses      int64 // pages fetched from the servers on demand
	CacheReadAheads  int64 // pages prefetched by the stride detector
	WriteBehindBytes int64 // dirty bytes drained by write-behind flushes
	CoalescedFlushes int64 // flushes merging 2+ dirty pages into one list write
	LeaseReqs        int64 // lease acquisitions clients sent
	LeaseGrants      int64 // leases the manager granted
	LeaseRecalls     int64 // conflicting leases the manager recalled
}

// Snapshot is a point-in-time view of all cluster counters: the protocol
// counters folded over every entity, plus what the substrate layers count.
type Snapshot struct {
	Acct

	// Client-side memory registration; lookups are attempts incl. cache hits.
	Registrations, Deregistrations, RegLookups, RegCacheHits int64

	// Server-side file system calls (the (lseek,read) / (lseek,write)
	// pairs of Table 6) and device operations.
	FSReadCalls, FSWriteCalls, DeviceReads, DeviceWrites int64

	// Sieve decisions across all servers.
	SieveWindows, SieveWins int64

	// Substrate fault activity (all zero on fault-free runs): queue pairs
	// recovered from error state, then injected faults by kind — work-request
	// completion errors, partition drops, disk errors and slowdowns,
	// registration rejections.
	QPResets, FaultWRErrors, FaultDrops, FaultDiskErrors, FaultRegFailures int64
}

// IOReqs returns the total read+write+sync request count.
func (a Acct) IOReqs() int64 { return a.ReadReqs + a.WriteReqs + a.SyncReqs }

// fold adds sign*src into dst, int64 field by int64 field, descending into
// embedded structs; a field of any other kind would silently fall out of
// every sum and delta, so it fails loudly.
func fold(dst, src reflect.Value, sign int64) {
	for i := 0; i < dst.NumField(); i++ {
		switch d := dst.Field(i); d.Kind() {
		case reflect.Int64:
			d.SetInt(d.Int() + sign*src.Field(i).Int())
		case reflect.Struct:
			fold(d, src.Field(i), sign)
		default:
			sim.Failf("stats: %v.%s is a %v, not an additive int64 counter", dst.Type(), dst.Type().Field(i).Name, d.Kind())
		}
	}
}

// Add accumulates o into a.
func (a *Acct) Add(o Acct) { fold(reflect.ValueOf(a).Elem(), reflect.ValueOf(o), 1) }

// Sub returns the deltas s - t, isolating one experiment's activity.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	fold(reflect.ValueOf(&s).Elem(), reflect.ValueOf(t), -1)
	return s
}

// String formats the snapshot as the rows of Table 6, plus a recovery suffix
// when the fault plane saw any action and a cache suffix when a pcache did.
func (s Snapshot) String() string {
	out := fmt.Sprintf(
		"req#=%d open#=%d reg#=%d hit=%d pin#=%d/%d read#=%d write#=%d dev#=%dr/%dw c/s=%.1fMB c/c=%.1fMB",
		s.IOReqs(), s.OpenReqs, s.RegLookups, s.RegCacheHits, s.Registrations, s.Deregistrations,
		s.FSReadCalls, s.FSWriteCalls, s.DeviceReads, s.DeviceWrites,
		float64(s.BytesClientServer)/(1<<20), float64(s.BytesClientClient)/(1<<20))
	if s.SieveWindows+s.SieveWins > 0 {
		out += fmt.Sprintf(" sieve=%d/%d", s.SieveWins, s.SieveWindows)
	}
	if s.Retries+s.Timeouts+s.Fallbacks+s.ServerAborts+s.Crashes+s.Restarts+s.IodRegistrations+s.QPResets+
		s.FaultWRErrors+s.FaultDrops+s.FaultDiskErrors+s.FaultRegFailures > 0 {
		out += fmt.Sprintf(" retry#=%d timeout#=%d fallback#=%d abort#=%d crash#=%d restart#=%d rereg#=%d qpreset#=%d"+
			" inj(wr#=%d drop#=%d disk#=%d reg#=%d)",
			s.Retries, s.Timeouts, s.Fallbacks, s.ServerAborts, s.Crashes, s.Restarts, s.IodRegistrations, s.QPResets,
			s.FaultWRErrors, s.FaultDrops, s.FaultDiskErrors, s.FaultRegFailures)
	}
	if s.CacheHits+s.CacheMisses+s.CacheReadAheads+s.WriteBehindBytes+
		s.CoalescedFlushes+s.LeaseReqs+s.LeaseGrants+s.LeaseRecalls > 0 {
		out += fmt.Sprintf(" cache(hit#=%d miss#=%d ra#=%d wb=%.1fMB coalesce#=%d) lease(req#=%d grant#=%d recall#=%d)",
			s.CacheHits, s.CacheMisses, s.CacheReadAheads, float64(s.WriteBehindBytes)/(1<<20), s.CoalescedFlushes,
			s.LeaseReqs, s.LeaseGrants, s.LeaseRecalls)
	}
	return out
}
