// Package sieve implements Active Data Sieving (Section 5 of the paper):
// server-side data sieving in which the I/O node inspects each batch of
// noncontiguous file accesses and uses an explicit cost model to decide
// whether to service them with one large contiguous access (plus a
// read-modify-write cycle for writes) or individually.
//
// The cost model is the paper's Table 1 / Section 5.1:
//
//	T_read = N·(O_r + O_seek) + Σ S_i/B_r(S_i)
//	T_write = N·(O_w + O_seek) + Σ S_i/B_w(S_i)
//	T_dsr  = O_r + O_seek + S_ds/B_r(S_ds)
//	T_dsw  = T_dsr + S_req/B_mem + O_lock + O_w + S_ds/B_w(S_ds) + O_unlock
//
// It is deliberately conservative: bandwidths are the *uncached* disk
// curves, so when sieving is chosen it is almost certainly beneficial once
// caching helps further.
//
// Payload moves between the file and the caller's buffer and nowhere else:
// a sieved window is charged as one read (and, for writes, one locked
// read-modify-write) of its whole span, but localfs.File.ReadPieces lends
// and WritePieces copies only the bytes the request names, so the span
// never passes through a buffer of its own. A read lends (Lend): its bytes
// stay in the file until whoever holds the loan reads or settles them. A
// request's bookkeeping — the sorted access list, the windows and the
// returned decisions — lives in Params.Plan, so a daemon that sets it
// allocates nothing per request. Read is the one call that returns a fresh
// payload-sized slice.
package sieve

import (
	"cmp"
	"slices"

	"pvfsib/internal/localfs"
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

// Access is one contiguous file region of a noncontiguous request.
type Access struct {
	Off int64
	Len int64
}

// End returns the first offset past the access.
func (a Access) End() int64 { return a.Off + a.Len }

// Params is the cost model (the paper's Table 1 system parameters).
type Params struct {
	// Bmem is host memory bandwidth in bytes/s.
	Bmem float64
	// Br and Bw return uncached file read/write bandwidth (bytes/s) for
	// an access of the given size.
	Br func(size int64) float64
	Bw func(size int64) float64
	// Or and Ow are per-call read/write overheads; Oseek is the seek
	// overhead; Olock/Ounlock are file lock costs.
	Or, Ow, Oseek  sim.Duration
	Olock, Ounlock sim.Duration
	// MaxBuffer caps the sieve staging buffer; larger spans are split
	// into windows decided independently.
	MaxBuffer int64
	// Plan, when set, is the scratch a request's sorted access list, its
	// windows and its decisions are built in; nil allocates them per
	// request. One request at a time may use a Plan (the I/O daemon's is
	// guarded by its file-phase mutex), and the decisions a call returns
	// are valid until the next call with the same Plan.
	Plan *Plan

	// Tracer, when set, records one span per window carrying the cost
	// model's verdict; Node labels those spans with the serving daemon.
	// Both are optional and cost nothing when unset.
	Tracer *trace.Tracer
	Node   string
}

// ModelFromFS derives the cost model from a local file system's measured
// parameters, as the I/O daemon does at startup.
func ModelFromFS(fs *localfs.FS, memBandwidth float64) Params {
	dp := fs.Disk().Params()
	fp := fs.Params()
	return Params{
		Bmem:      memBandwidth,
		Br:        dp.ReadBW,
		Bw:        dp.WriteBW,
		Or:        fp.CallOverhead + dp.PerOp,
		Ow:        fp.CallOverhead + dp.PerOp,
		Oseek:     dp.Seek,
		Olock:     fp.LockOverhead,
		Ounlock:   fp.LockOverhead,
		MaxBuffer: 4 << 20,
	}
}

// Mode selects how the decision is made.
type Mode int

const (
	// Auto applies the cost model per window (Active Data Sieving).
	Auto Mode = iota
	// Always sieves unconditionally (classic data sieving).
	Always
	// Never services each access individually (list I/O without ADS).
	Never
)

// Decision records the outcome of the cost model for one window.
type Decision struct {
	UseSieve bool
	N        int   // accesses in the window
	Span     int64 // S_ds
	Wanted   int64 // S_req
	Tds      sim.Duration
	Tindiv   sim.Duration
}

// Stats accumulates sieve activity on a server.
type Stats struct {
	Windows     int64
	SievedWins  int64 // windows the model chose to sieve
	IndivWins   int64
	SievedBytes int64 // bytes read/written through sieve buffers (S_ds)
	WantedBytes int64 // bytes the client actually asked for (S_req)
}

// window is a run of accesses whose span fits the staging buffer. Each
// access is the piece the file copies, Pos being where its bytes sit in the
// request payload (the accesses' bytes concatenated in request order).
type window struct {
	accs []localfs.Piece // sorted by offset
	span Access
}

// Plan is the reusable scratch of one request's bookkeeping: the backing of
// the sorted access list, of the windows cut from it and of the decisions
// returned to the caller. The zero value is ready to use.
type Plan struct {
	sorted    []localfs.Piece
	wins      []window
	decisions []Decision
}

// planWindows sorts accesses and greedily packs them into spans of at most
// maxBuffer bytes. Unbounded maxBuffer yields a single window. Equal
// accesses stay in request order, so of duplicate writes the last one wins.
// The windows live in pl and are valid until it plans the next request.
func (pl *Plan) planWindows(accs []Access, maxBuffer int64) []window {
	// The scratch reaches the longest access list a request has carried (at
	// most the list-I/O pair limit) and stops growing.
	sorted := slices.Grow(pl.sorted[:0], len(accs))[:len(accs)]
	var pos int64
	inOrder := true
	for i, a := range accs {
		sorted[i] = localfs.Piece{Off: a.Off, Len: a.Len, Pos: pos}
		pos += a.Len
		// Positions only grow, so a list ascending by (Off, Len) is
		// already in the sort's order.
		if i > 0 {
			if prev := accs[i-1]; a.Off < prev.Off || a.Off == prev.Off && a.Len < prev.Len {
				inOrder = false
			}
		}
	}
	if !inOrder {
		slices.SortFunc(sorted, comparePieces)
	}
	wins := pl.wins[:0]
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
	wins = append(wins, window{sorted[start:], span})
	pl.sorted, pl.wins = sorted, wins
	return wins
}

// comparePieces orders accesses by offset, then length, then request position.
func comparePieces(a, b localfs.Piece) int {
	if c := cmp.Compare(a.Off, b.Off); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Len, b.Len); c != 0 {
		return c
	}
	return cmp.Compare(a.Pos, b.Pos)
}

// plan returns the scratch a request builds its bookkeeping in: the caller's
// when it supplied one, a fresh one otherwise.
func (p Params) plan() *Plan {
	if p.Plan != nil {
		return p.Plan
	}
	return new(Plan)
}

// decide evaluates the cost model for one window.
func (p Params) decide(w window, write bool) Decision {
	d := Decision{N: len(w.accs), Span: w.span.Len}
	var tIndiv, tSieve sim.Duration
	perOp := p.Or
	bwFor := p.Br
	if write {
		perOp = p.Ow
		bwFor = p.Bw
	}
	for _, a := range w.accs {
		d.Wanted += a.Len
		tIndiv += perOp + p.Oseek + xferTime(a.Len, bwFor(a.Len))
	}
	tdsr := p.Or + p.Oseek + xferTime(d.Span, p.Br(d.Span))
	if write {
		tSieve = tdsr + xferTime(d.Wanted, p.Bmem) + p.Olock + p.Ow +
			xferTime(d.Span, p.Bw(d.Span)) + p.Ounlock
	} else {
		tSieve = tdsr
	}
	d.Tds, d.Tindiv = tSieve, tIndiv
	d.UseSieve = tSieve < tIndiv
	return d
}

func xferTime(size int64, bw float64) sim.Duration {
	if size <= 0 || bw <= 0 {
		return 0
	}
	return sim.Duration(float64(size) / bw * 1e9)
}

// Lend services the accesses against the file, lending the wanted bytes on
// l at their places in the accesses concatenated in the order given (reads
// past end of file return zeros). The returned decisions describe each
// window; with Params.Plan set they are valid until the next call on the
// same Plan.
func Lend(p *sim.Proc, f *localfs.File, accs []Access, l *localfs.Loan, params Params, mode Mode, stats *Stats) []Decision {
	if len(accs) == 0 {
		return nil
	}
	pl := params.plan()
	decisions := pl.decisions[:0]
	for _, w := range pl.planWindows(accs, params.MaxBuffer) {
		d := params.decide(w, false)
		applyMode(&d, mode)
		decisions = append(decisions, d)
		record(stats, d)
		sp := startWindowSpan(p, params, d)
		if d.UseSieve {
			f.ReadPieces(p, w.span.Off, w.span.Len, w.accs, l)
		} else {
			for i, a := range w.accs {
				f.ReadPieces(p, a.Off, a.Len, w.accs[i:i+1], l)
			}
		}
		sp.End(p.Now())
	}
	pl.decisions = decisions
	return decisions
}

// ReadInto is Lend into dst, settled at once: dst must be as long as the
// accesses together.
func ReadInto(p *sim.Proc, f *localfs.File, accs []Access, dst []byte, params Params, mode Mode, stats *Stats) []Decision {
	l := f.Lend(dst)
	decisions := Lend(p, f, accs, l, params, mode, stats)
	l.Settle()
	l.Release()
	return decisions
}

// Read is ReadInto into a fresh slice.
func Read(p *sim.Proc, f *localfs.File, accs []Access, params Params, mode Mode, stats *Stats) ([]byte, []Decision) {
	if len(accs) == 0 {
		return nil, nil
	}
	var total int64
	for _, a := range accs {
		total += a.Len
	}
	out := make([]byte, total)
	return out, ReadInto(p, f, accs, out, params, mode, stats)
}

// Write services the accesses with the given data (concatenated in access
// order). Sieved windows perform a locked read-modify-write; individual
// windows write each piece directly. The returned decisions are as ReadInto's.
func Write(p *sim.Proc, f *localfs.File, accs []Access, data []byte, params Params, mode Mode, stats *Stats) []Decision {
	if len(accs) == 0 {
		return nil
	}
	pl := params.plan()
	decisions := pl.decisions[:0]
	for _, w := range pl.planWindows(accs, params.MaxBuffer) {
		d := params.decide(w, true)
		applyMode(&d, mode)
		decisions = append(decisions, d)
		record(stats, d)
		sp := startWindowSpan(p, params, d)
		if d.UseSieve {
			// Read the span, modify it, write it back, under the window's
			// lock. The span's bytes outside the accesses are the file's
			// own throughout, so only the accesses are copied.
			f.Lock(p, w.span.Off, w.span.Len)
			f.ReadPieces(p, w.span.Off, w.span.Len, nil, nil)
			p.Sleep(xferTime(d.Wanted, params.Bmem)) // modify phase
			f.WritePieces(p, w.span.Off, w.span.Len, w.accs, data)
			f.Unlock(p, w.span.Off, w.span.Len)
		} else {
			for _, a := range w.accs {
				f.WriteAt(p, a.Off, data[a.Pos:a.Pos+a.Len])
			}
		}
		sp.End(p.Now())
	}
	pl.decisions = decisions
	return decisions
}

// startWindowSpan opens a span for one serviced window, annotated with
// the cost model's verdict. It returns the zero Span when no tracer is
// attached.
func startWindowSpan(p *sim.Proc, params Params, d Decision) trace.Span {
	sp := params.Tracer.Start(p.Now(), trace.Ctx(p.TraceCtx()), params.Node, "sieve.window", trace.StageSieve)
	sp.SetBytes(d.Wanted)
	if sp.Recording() {
		sp.Annotate("sieve=%t n=%d span=%d t_ds=%v t_indiv=%v", d.UseSieve, d.N, d.Span, d.Tds, d.Tindiv)
	}
	return sp
}

func applyMode(d *Decision, mode Mode) {
	switch mode {
	case Always:
		d.UseSieve = true
	case Never:
		d.UseSieve = false
	}
}

func record(stats *Stats, d Decision) {
	if stats == nil {
		return
	}
	stats.Windows++
	stats.WantedBytes += d.Wanted
	if d.UseSieve {
		stats.SievedWins++
		stats.SievedBytes += d.Span
	} else {
		stats.IndivWins++
		stats.SievedBytes += d.Wanted
	}
}
