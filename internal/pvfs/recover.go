package pvfs

import (
	"errors"
	"fmt"

	"pvfsib/internal/ib"
	"pvfsib/internal/sim"
	"pvfsib/internal/simnet"
)

// errTimeout marks a client wait that outlived Recovery.Timeout.
var errTimeout = errors.New("pvfs: request timed out")

// recoverable reports whether an error is transient under the fault plane —
// a timeout, an injected completion error, a QP stuck in error state, or a
// crashed adapter — and therefore worth a retry. Anything else (bad
// arguments, registration bugs, model invariant violations) propagates.
func recoverable(err error) bool {
	return errors.Is(err, errTimeout) ||
		errors.Is(err, ib.ErrWC) ||
		errors.Is(err, ib.ErrQPState) ||
		errors.Is(err, ib.ErrHCADown) ||
		errors.Is(err, ib.ErrRegPressure) ||
		errors.Is(err, simnet.ErrDropped)
}

// recvResp waits for the reply to request seq. Without a fault plane it
// blocks exactly like the original protocol. Under faults it waits at most
// Recovery.Timeout and discards stale replies — responses to an earlier
// attempt this client already timed out and re-issued, told by the sequence
// number every reply echoes (a retry gets a fresh one) — into the pool.
func (c *Client) recvResp(p *sim.Proc, conn *clientConn, seq int64) (any, error) {
	rec := c.cluster.recovery()
	if rec == nil {
		_, payload := conn.qp.Recv(p)
		return payload, nil
	}
	for {
		_, payload, ok := conn.qp.RecvTimeout(p, rec.Timeout)
		if !ok {
			c.mx.timeouts.Add(p.Now(), 1)
			return nil, errTimeout
		}
		if r, ok := payload.(*record); ok && r.Seq != seq {
			c.recs.put(r)
			continue
		}
		return payload, nil
	}
}

// resetConn clears a connection QP out of error state so the next attempt
// can post again; the reset also drains stale inbox traffic.
func (c *Client) resetConn(p *sim.Proc, conn *clientConn) {
	if conn.qp.State() == ib.QPError {
		conn.qp.Reset(p)
	}
}

// retryBackoff returns the delay before retry number attempt (0-based):
// exponential from Recovery.Backoff, capped at Recovery.MaxBackoff.
func retryBackoff(rec *Recovery, attempt int) sim.Duration {
	if attempt >= 30 {
		return rec.MaxBackoff
	}
	d := rec.Backoff << uint(attempt)
	if d <= 0 || d > rec.MaxBackoff {
		d = rec.MaxBackoff
	}
	return d
}

// rpc issues one small idempotent request and waits for its reply, retrying
// with backoff under the fault plane. build is called per attempt with a
// fresh sequence number.
func (c *Client) rpc(p *sim.Proc, conn *clientConn, size int, build func(seq int64) any) (any, error) {
	rec := c.cluster.recovery()
	for attempt := 0; ; attempt++ {
		seq := c.seq()
		err := c.send(p, conn, size, build(seq))
		if err == nil {
			var payload any
			payload, err = c.recvResp(p, conn, seq)
			if err == nil {
				return payload, nil
			}
		}
		if rec == nil || !recoverable(err) {
			return nil, err
		}
		c.mx.retries.Add(p.Now(), 1)
		c.resetConn(p, conn)
		if attempt+1 >= rec.MaxRetries {
			return nil, fmt.Errorf("pvfs: cn%d: rpc failed after %d attempts: %w", c.idx, attempt+1, err)
		}
		t0 := p.Now()
		p.Sleep(retryBackoff(rec, attempt))
		c.mx.backoff.AddSpan(t0, p.Now())
	}
}
