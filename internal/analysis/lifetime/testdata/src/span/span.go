// Package span exercises the lifetime analyzer's span row: spans must be
// ended exactly once on every normal path.
package span

import (
	"pvfsib/internal/sim"
	"pvfsib/internal/trace"
)

var errBoom error

func work(p *sim.Proc) error { return errBoom }

// ---- clean shapes: no findings ----

func ok(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.Start(p.Now(), 0, "n0", "k", trace.StageOther)
	sp.SetBytes(4)
	sp.End(p.Now())
}

func okErr(p *sim.Proc, tr *trace.Tracer) error {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	err := work(p)
	sp.EndErr(p.Now(), err)
	return err
}

func okDefer(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	defer sp.End(p.Now())
	sp.SetBytes(2)
}

func okDeferClosure(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	defer func() {
		sp.End(p.Now())
	}()
	sp.SetBytes(2)
}

func okBothArms(p *sim.Proc, tr *trace.Tracer, b bool) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	if b {
		sp.End(p.Now())
	} else {
		sp.EndErr(p.Now(), nil)
	}
}

// okCondOrigin mirrors the client's listOp wrapper: the span comes from
// Start or NewRequest depending on whether a parent context exists.
func okCondOrigin(p *sim.Proc, tr *trace.Tracer, ctx trace.Ctx) error {
	var sp trace.Span
	if ctx != 0 {
		sp = tr.Start(p.Now(), ctx, "n0", "k", trace.StageOther)
	} else {
		sp = tr.NewRequest(p.Now(), "n0", "k")
	}
	err := work(p)
	sp.EndErr(p.Now(), err)
	return err
}

// okRetryLoop mirrors the attempt loop: one span per iteration, ended
// before the next begins.
func okRetryLoop(p *sim.Proc, tr *trace.Tracer, n int) {
	for i := 0; i < n; i++ {
		sp := tr.NewRequest(p.Now(), "n0", "attempt")
		if sp.Recording() {
			sp.Annotate("attempt=%d", i)
		}
		sp.End(p.Now())
	}
}

// startHelper escapes its span via the return value: the caller owns it.
func startHelper(p *sim.Proc, tr *trace.Tracer) trace.Span {
	sp := tr.Start(p.Now(), 0, "n0", "helper", trace.StageOther)
	sp.SetBytes(8)
	return sp
}

// startPair mirrors mpiio's startAccess: span plus a saved context.
func startPair(p *sim.Proc, tr *trace.Tracer) (trace.Span, uint64) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	return sp, 7
}

func okHelperCaller(p *sim.Proc, tr *trace.Tracer) {
	sp := startHelper(p, tr)
	sp.End(p.Now())
}

func okPairCaller(p *sim.Proc, tr *trace.Tracer) {
	sp, v := startPair(p, tr)
	_ = v
	sp.EndErr(p.Now(), nil)
}

// okPassOff hands the span to another function: ownership moves with it.
func okPassOff(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	finish(p, sp)
}

func finish(p *sim.Proc, sp trace.Span) {
	sp.End(p.Now())
}

// okClosureCapture hands the span to a closure that ends it later.
func okClosureCapture(p *sim.Proc, tr *trace.Tracer, spawn func(func())) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	spawn(func() {
		sp.End(p.Now())
	})
}

// okStored parks the span in a struct: the handle escaped.
type holder struct {
	sp trace.Span
}

func okStored(p *sim.Proc, tr *trace.Tracer, h *holder) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	h.sp = sp
}

// okRangeBody mirrors the sieve window loop: one span per ranged window,
// ended inside the body, with an error path that ends it early. The range
// head must not re-observe the body's ends as phantom double ends.
func okRangeBody(p *sim.Proc, tr *trace.Tracer, xs []int) error {
	for _, x := range xs {
		sp := tr.NewRequest(p.Now(), "n0", "window")
		if x < 0 {
			sp.EndErr(p.Now(), errBoom)
			return errBoom
		}
		sp.End(p.Now())
	}
	return nil
}

// ---- findings ----

func leakOnBranch(p *sim.Proc, tr *trace.Tracer, fail bool) error {
	sp := tr.Start(p.Now(), 0, "n0", "k", trace.StageOther)
	if fail {
		return errBoom // want `return leaks the live span held by sp`
	}
	sp.End(p.Now())
	return nil
}

func leakAtEnd(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.Start(p.Now(), 0, "n0", "k", trace.StageOther) // want `span assigned to sp is never ended on some path to the end of the function`
	sp.SetBytes(1)
}

func leakFromHelper(p *sim.Proc, tr *trace.Tracer) {
	sp := startHelper(p, tr) // want `span assigned to sp is never ended on some path to the end of the function`
	sp.SetBytes(9)
}

func doubleEnd(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	sp.End(p.Now())
	sp.End(p.Now()) // want `double end of sp`
}

func doubleEndErr(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	sp.EndErr(p.Now(), nil)
	sp.EndErr(p.Now(), errBoom) // want `double end of sp`
}

func deferShadowedEnd(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	defer sp.End(p.Now()) // want `double end of sp`
	sp.End(p.Now())
}

func leakOnEarlyReturn(p *sim.Proc, tr *trace.Tracer) error {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	if err := work(p); err != nil {
		return err // want `return leaks the live span held by sp`
	}
	sp.End(p.Now())
	return nil
}

func discardStart(p *sim.Proc, tr *trace.Tracer) {
	tr.Start(p.Now(), 0, "n0", "k", trace.StageOther) // want `result of Start is discarded: the span can never be ended`
}

func blankSpan(p *sim.Proc, tr *trace.Tracer) {
	_ = tr.NewRequest(p.Now(), "n0", "k") // want `span from NewRequest assigned to the blank identifier`
}

func overwriteOpen(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.NewRequest(p.Now(), "n0", "first")
	sp = tr.NewRequest(p.Now(), "n0", "second") // want `sp is overwritten while it still owns a live span`
	sp.End(p.Now())
}

// setAfterEnd touches a closed span, which trace.Span.End documents as a
// bug.
func setAfterEnd(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.NewRequest(p.Now(), "n0", "k")
	sp.End(p.Now())
	sp.SetBytes(4) // want `use of sp after end`
}
