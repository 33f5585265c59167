package bench

import (
	"math"
	"slices"
	"strconv"

	"pvfsib/internal/sim"
)

// cite is one thing the paper reports about an experiment's table, with the
// claim it supports. With col set it is the paper's value for the cell at
// (row, col), or, with over set, for the ratio of that cell to the one over
// names: another column of the same row, or the same column of another row.
// row holds the row's leading labels joined by ", " (Table.FindRow), or is
// "lowest" or "highest": the extreme ratio over every row. With col empty
// the cite is a shape claim the paper makes in words.
type cite struct {
	row, col, over string
	paper          float64
	claim          string
}

// column cites the paper's values for one column, one per row.
func column(col, claim string, rows []string, vals ...float64) []cite {
	out := make([]cite, len(rows))
	for i, r := range rows {
		out[i] = cite{row: r, col: col, paper: vals[i], claim: claim}
	}
	return out
}

// entry is c's row of the paper table: where the value sits in t, the
// paper's value, ours, ours over the paper's, and the claim.
func (c cite) entry(id string, t *Table) []any {
	at := func(i int, col string) float64 {
		if i < 0 || !slices.Contains(t.Header, col) {
			sim.Failf("bench: %s cites row %q column %q, which its table lacks", id, c.row, col)
		}
		return t.CellF(i, col)
	}
	rows, row, col := []int{t.FindRow(c.row)}, c.row, c.col
	if c.row == "lowest" || c.row == "highest" {
		rows = rows[:0]
		for i := range t.Rows {
			rows = append(rows, i)
		}
	}
	v := math.NaN()
	for _, i := range rows {
		x := at(i, c.col)
		if c.over != "" && slices.Contains(t.Header, c.over) {
			x, col = x/at(i, c.over), c.col+" ÷ "+c.over
		} else if c.over != "" {
			x, row = x/at(t.FindRow(c.over), c.col), c.row+" ÷ "+c.over
		}
		if math.IsNaN(v) || (x < v) == (c.row == "lowest") {
			v = x
		}
	}
	ours, ratio := strconv.FormatFloat(v, 'f', 2, 64), "-"
	if c.over == "" {
		ours = t.Cell(rows[0], c.col)
	}
	if c.paper != 0 {
		ratio = strconv.FormatFloat(v/c.paper, 'f', 2, 64)
	}
	return []any{id, row, col, strconv.FormatFloat(c.paper, 'f', -1, 64), ours, ratio, c.claim}
}

// Paper sets the paper's numbers beside ours: it runs every Registry
// experiment that cites one, one after another, and reports a row per cited
// cell or ratio, with the shape claims as notes. At the full sweeps it is
// the committed BENCH_paper.json, which EXPERIMENTS.md renders. Like
// HostCost it is not in Registry, and `-run all` does not print it.
var Paper = Experiment{
	ID:     "paper",
	Title:  "The paper's values beside ours, one row per cited cell or ratio, its shape claims as notes",
	header: []string{"experiment", "row", "column", "paper", "measured", "ratio", "claim"},
	sweep: func(o RunOpts) []group {
		return each([]string{"registry"},
			func(string) []*Table {
				got := make([]*Table, len(Registry))
				for i, e := range Registry {
					if slices.ContainsFunc(e.paper, func(c cite) bool { return c.col != "" }) {
						got[i] = e.Run(o)
					}
				}
				return got
			},
			func(t *Table, _ string, got []*Table) {
				for i, e := range Registry {
					for _, c := range e.paper {
						if c.col == "" {
							t.Note("%s: %s", e.ID, c.claim)
						} else {
							t.Add(c.entry(e.ID, got[i])...)
						}
					}
				}
			})
	},
}
