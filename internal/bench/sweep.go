package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// cell is one independent unit of an experiment: a fully self-contained
// simulation (its own Engine, fabric, and cluster) producing one opaque
// result. Cells share nothing mutable — that is what makes the worker pool
// below correct: any execution interleaving computes the same values.
type cell struct {
	// key canonically identifies the cell within its experiment, for panic
	// reports and debugging.
	key string
	run func() any
}

// group is one row group of a sweep: the cells measured for it and the
// renderer that turns exactly those cells' results, in cell order, into
// table rows (and any notes derived from them).
type group struct {
	cells  []cell
	render func(t *Table, results []any)
}

// grid declares a sweep over two axes: one group per rows value holding one
// cell per cols value. run is the typed cell function; render is handed the
// row value and that row's results in cols order.
func grid[R, C, T any](rows []R, cols []C, run func(R, C) T, render func(t *Table, r R, res []T)) []group {
	groups := make([]group, 0, len(rows))
	for _, r := range rows {
		g := group{render: func(t *Table, results []any) {
			res := make([]T, len(results))
			for i, v := range results {
				res[i] = v.(T)
			}
			render(t, r, res)
		}}
		for _, c := range cols {
			g.cells = append(g.cells, cell{
				key: fmt.Sprintf("%v/%v", r, c),
				run: func() any { return run(r, c) },
			})
		}
		groups = append(groups, g)
	}
	return groups
}

// each is grid with a single column: one cell (keyed by the row value
// alone), and one render call, per rows value.
func each[R, T any](rows []R, run func(R) T, render func(t *Table, r R, res T)) []group {
	groups := grid(rows, []struct{}{{}},
		func(r R, _ struct{}) T { return run(r) },
		func(t *Table, r R, res []T) { render(t, r, res[0]) })
	for i, r := range rows {
		groups[i].cells[0].key = fmt.Sprint(r)
	}
	return groups
}

// pair is one point of a two-axis product.
type pair[A, B any] struct {
	a A
	b B
}

// cross returns the product of two axes in row-major order, for sweeps
// whose rows (or columns) vary two parameters.
func cross[A, B any](as []A, bs []B) []pair[A, B] {
	out := make([]pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, pair[A, B]{a, b})
		}
	}
	return out
}

// pick is the conditional expression Go lacks; the sweeps mostly use it to
// select the -short axis (or size) over the full one.
func pick[T any](cond bool, yes, no T) T {
	if cond {
		return yes
	}
	return no
}

// line builds one table row: the leading label cells followed by one value
// per column result.
func line[T any](res []T, val func(T) any, lead ...any) []any {
	for _, r := range res {
		lead = append(lead, val(r))
	}
	return lead
}

// Run executes the experiment's sweep on o.Parallel workers (0 or negative
// means GOMAXPROCS) and renders the groups in declaration order, each from
// its own cells' results. Results are matched to groups by position in the
// flattened cell list, never by completion order, so the table is
// byte-identical for every worker count; TestParallelIdentical enforces
// that as an invariant, not an accident.
func (e Experiment) Run(o RunOpts) *Table {
	groups := e.sweep(o)
	var cells []cell
	for _, g := range groups {
		cells = append(cells, g.cells...)
	}
	results := runCells(cells, o.Parallel)
	t := e.newTable()
	for _, g := range groups {
		g.render(t, results[:len(g.cells)])
		results = results[len(g.cells):]
	}
	t.Notes = append(t.Notes, e.notes...)
	return t
}

// newTable returns the experiment's empty result table.
func (e Experiment) newTable() *Table {
	return &Table{ID: e.ID, Title: e.table, Header: e.header}
}

// runCells executes cells on a bounded worker pool and returns results in
// cell order. The first cell to panic stops the pool — workers finish the
// cell they hold and take no more — and its panic is re-raised, with the
// cell's key, on the caller's goroutine once the pool has drained, so no
// worker leaks. A one-worker pool is the serial path.
func runCells(cells []cell, parallel int) []any {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	results := make([]any, len(cells))
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		failed atomic.Pointer[string]
	)
	for w := 0; w < min(parallel, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for failed.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				results[i] = runOneCell(cells[i], &failed)
			}
		}()
	}
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		//pvfslint:ok nopanic re-raising a cell's panic on the caller's goroutine with its key attached
		panic(*msg)
	}
	return results
}

// runOneCell executes a single cell, converting a panic into the recorded
// first failure so sibling workers can drain before the caller re-panics.
func runOneCell(c cell, failed *atomic.Pointer[string]) (result any) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("bench: cell %q: %v", c.key, r)
			failed.CompareAndSwap(nil, &msg)
		}
	}()
	return c.run()
}
