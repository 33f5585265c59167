// Package b exercises the audit ratchet: an effect is audited once, where it
// happens, by a //pvfslint:ok hotpath directive. An audited site is silent
// from every root that reaches it, an unaudited one fails from each, and an
// audit of nothing is itself a finding. The test runs okreason alongside
// hotpath, because the two hold the contract together.
package b

// grow's append is audited at the site.
func grow(s []int) []int {
	//pvfslint:ok hotpath amortized growth; the backing array is retained
	return append(s, 1)
}

// leak's allocation is not.
func leak(n int) []byte {
	return make([]byte, n)
}

// first and second both reach both: grow is silent from either, leak fails
// from each with the chain and the effect's own position.
//
//pvfslint:hotpath
func first(s []int) {
	grow(s)
	leak(1) // want `hot path b\.first: allocation "make" in b\.leak at b\.go:16 \(via b\.leak\) — unaudited`
}

// second also tries to audit leak from above the call that reaches it. An
// audit belongs at the effect: the finding stands, and the directive, which
// covers no effect, is stale.
//
//pvfslint:hotpath
func second(s []int) {
	grow(s)
	/* want `stale audit: //pvfslint:ok hotpath covers no hot-path effect here` */ //pvfslint:ok hotpath leak is cold on this path
	leak(2) // want `hot path b\.second: allocation "make" in b\.leak at b\.go:16 \(via b\.leak\) — unaudited`
}

// unreasoned's directive silences hotpath and says nothing: okreason fails it.
//
//pvfslint:hotpath
func unreasoned(n int) []byte {
	return make([]byte, n) /* want `pvfslint:ok hotpath gives no reason` */ //pvfslint:ok hotpath
}

// orphan's audit is of a real effect, but no root reaches orphan any more.
func orphan(n int) []byte {
	/* want `stale audit: no //pvfslint:hotpath root that budgets this effect reaches it any more` */ //pvfslint:ok hotpath scratch for first, before first stopped calling it
	return make([]byte, n)
}

// report is cold as a whole: one directive in its doc comment covers every
// effect of its body.
//
//pvfslint:ok hotpath error formatting; runs only when the run already failed
func report(names []string, n int) string {
	names = append(names, "x")
	m := make(map[string]int)
	m["k"] = n
	return names[0] + "!"
}

//pvfslint:hotpath
func failing(names []string) string { return report(names, 1) }

// sender parks by design: its class list budgets allocation and wall-clock
// effects only, so the unaudited chan send is none of its business. The
// allocation still is.
//
//pvfslint:hotpath alloc,syscall
func sender(ch chan int, n int) []byte {
	ch <- n
	return make([]byte, n) // want `hot path b\.sender: allocation "make" in b\.sender at b\.go:73 — unaudited`
}

// list is a generic free list whose miss is audited once, in the generic
// body: every instantiation shares the audit.
type list[T any] struct{ free []*T }

func (l *list[T]) take() *T {
	if n := len(l.free) - 1; n >= 0 {
		x := l.free[n]
		l.free = l.free[:n]
		return x
	}
	//pvfslint:ok hotpath free-list miss: one allocation per high-water mark
	return new(T)
}

// pooled's only allocation is the audited miss of two instantiations.
//
//pvfslint:hotpath
func pooled(ints *list[int], strs *list[string]) {
	ints.take()
	strs.take()
}
