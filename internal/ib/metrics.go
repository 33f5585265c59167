package ib

import (
	"pvfsib/internal/metrics"
)

// hcaMetrics is one adapter's instrument set. Zero-value handles are
// no-op sinks, so the verbs hot paths sample unconditionally. Every
// series is owned by the HCA's node and only updated by that node's
// events: work requests sample on the initiator's shard, and the
// outstanding-read gauge's decrement (the response's receive event)
// also runs on the initiator.
type hcaMetrics struct {
	regHits  metrics.Counter // pin-down cache lookups served without registering (owns Counters.RegCacheHits)
	regMiss  metrics.Counter // lookups that had to register (owns Counters.RegCacheMisses)
	pinned   metrics.Gauge   // bytes pinned on the adapter
	sendQ    metrics.Gauge   // verbs work requests in progress (send queue depth)
	outReads metrics.Gauge   // RDMA reads awaiting their response
}

// SetMetrics attaches (or, with nil, detaches) the metrics registry; the
// counters keep writing through to Counters either way. The node's name
// must already be registered. Call while the engine is idle.
func (h *HCA) SetMetrics(mx *metrics.Registry) {
	name := h.node.Name
	h.mx = hcaMetrics{
		regHits:  mx.Counter(name, "ib.regcache.hit").Owned(&h.Counters.RegCacheHits),
		regMiss:  mx.Counter(name, "ib.regcache.miss").Owned(&h.Counters.RegCacheMisses),
		pinned:   mx.Gauge(name, "ib.pinned.bytes"),
		sendQ:    mx.Gauge(name, "ib.sendq"),
		outReads: mx.Gauge(name, "ib.reads.outstanding"),
	}
	h.mx.pinned.Set(h.engine().Now(), h.pinnedBytes)
}
