package ib

import (
	"errors"
	"fmt"

	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// WCStatus is a work-completion status code, the CQ-entry field real verbs
// consumers branch on. The simulated HCA reports it through WCError rather
// than an explicit completion queue.
type WCStatus int

const (
	// WCSuccess is never carried by a WCError; it exists so status codes
	// can be stored and compared meaningfully.
	WCSuccess WCStatus = iota
	// WCRetryExceeded: the reliable connection exhausted its transport
	// retries (link partitioned or peer dead).
	WCRetryExceeded
	// WCWorkRequestError: the work request itself completed in error
	// (injected NIC-level completion error).
	WCWorkRequestError
	// WCResponseTimeout: an RDMA read posted but its response never
	// arrived within the adapter's timeout.
	WCResponseTimeout
)

func (s WCStatus) String() string {
	switch s {
	case WCSuccess:
		return "success"
	case WCRetryExceeded:
		return "retry-exceeded"
	case WCWorkRequestError:
		return "wr-error"
	case WCResponseTimeout:
		return "response-timeout"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// WCError is a failed work completion. After one, the queue pair is in the
// error state and rejects further work until Reset.
type WCError struct {
	Status WCStatus
	Op     string // "send", "rdma-write", "rdma-read"
}

func (e *WCError) Error() string {
	return fmt.Sprintf("ib: %s completed with status %s", e.Op, e.Status)
}

// ErrWC matches every *WCError under errors.Is, whatever its status: the
// test for "a work completion failed" that, unlike errors.As, needs no
// target variable and so allocates nothing.
var ErrWC = errors.New("ib: work completion error")

// Is reports whether target is ErrWC.
func (e *WCError) Is(target error) bool { return target == ErrWC }

// ErrQPState is returned for work posted to a queue pair in the error
// state; the caller must Reset the QP first.
var ErrQPState = errors.New("ib: queue pair in error state")

// ErrHCADown is returned for work posted through a downed adapter (its
// host daemon has crashed).
var ErrHCADown = errors.New("ib: adapter down")

// FaultInjector is the adapter's hook into the fault plane
// (internal/fault implements it). WRError is drawn once per posted work
// request on non-control QPs; RegFail once per dynamic registration.
type FaultInjector interface {
	WRError(now sim.Time, node string) bool
	RegFail(now sim.Time, node string) bool
}

// SetFaults attaches (or, with nil, detaches) the fault injector. Without
// one, no fault checks run anywhere in the adapter.
func (h *HCA) SetFaults(f FaultInjector) { h.faults = f }

// SetTracer attaches (or, with nil, detaches) the span tracer. Without
// one the adapter's hot paths record nothing and allocate nothing.
func (h *HCA) SetTracer(tr *trace.Tracer) { h.tracer = tr }

// SetDown marks the adapter dead or alive. A down adapter discards all
// inbound traffic (in-flight requests to its host die silently, exactly
// what a daemon crash looks like from the far end) and fails all posted
// work with ErrHCADown.
func (h *HCA) SetDown(down bool) { h.down = down }

// Down reports whether the adapter is marked dead.
func (h *HCA) Down() bool { return h.down }

// QPState is the queue pair state machine, collapsed to the two states the
// recovery layer distinguishes.
type QPState int

const (
	// QPReady accepts work (RTS in real verbs).
	QPReady QPState = iota
	// QPError rejects work until Reset (a failed WR moved the QP here).
	QPError
)

// State returns the queue pair's current state.
func (q *QP) State() QPState { return q.state }

// MarkControl exempts this endpoint from probabilistic WR-error injection
// (mark both ends of a connection). Metadata and MPI connections are
// control paths: the fault plane targets file data traffic, and a
// completion error on the manager connection would take down paths that
// have no retry story by design (Open has no error return, matching PVFS).
func (q *QP) MarkControl() { q.control = true }

// Reset drains the endpoint's receive queue (stale messages from the
// failed epoch are discarded), returns it to the ready state, and charges
// the reconnect latency — the collapsed cost of the real
// ERR→RESET→INIT→RTR→RTS transition plus connection re-establishment.
func (q *QP) Reset(p *sim.Proc) {
	sp := q.hca.tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), q.hca.node.Name, "ib.qp-reset", trace.StageOther)
	p.Sleep(q.hca.params.QPResetLatency)
	for {
		v, ok := q.inbox.TryRecv()
		if !ok {
			break
		}
		q.hca.putWire(v.(*wire))
	}
	q.state = QPReady
	q.hca.Counters.QPResets++
	sp.End(p.Now())
}

// wrFault consults the fault plane for one posted work request; on
// injection the QP enters the error state. It also rejects work posted
// while down or in the error state.
func (q *QP) wrFault(p *sim.Proc, op string) error {
	h := q.hca
	if h.down {
		return ErrHCADown
	}
	if q.state == QPError {
		return ErrQPState
	}
	if h.faults != nil && !q.control && h.faults.WRError(p.Now(), h.node.Name) {
		q.state = QPError
		h.Counters.WRErrors++
		return &WCError{Status: WCWorkRequestError, Op: op}
	}
	return nil
}

// wireFault converts a fabric send failure (partition) into the completion
// error the initiator would see, moving the QP to the error state.
func (q *QP) wireFault(op string, err error) error {
	if err == nil {
		return nil
	}
	q.state = QPError
	q.hca.Counters.WRErrors++
	return &WCError{Status: WCRetryExceeded, Op: op}
}
