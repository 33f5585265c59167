// Package bench reproduces every table and figure of the paper's
// evaluation (Section 6) plus a set of ablations, on the simulated
// cluster. Each experiment builds its own cluster, drives the workload in
// virtual time, and reports the same rows or series the paper does.
// Results are formatted as plain-text tables; cmd/pvfsbench prints them and
// bench_test.go wraps them as Go benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"pvfsib/internal/sim"
)

// Table is one experiment's result: a title, column headers, and rows of
// formatted cells.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes are printed under the table (calibration caveats, paper
	// reference values).
	Notes []string
}

// Add appends a row, formatting each cell: floats as %.1f, others via %v.
// A row must have exactly one cell per header column: a ragged row would
// misalign silently in the JSON and CSV renderings.
func (t *Table) Add(cells ...any) {
	if len(cells) != len(t.Header) {
		sim.Failf("bench: table %s: row of %d cells under a %d-column header", t.ID, len(cells), len(t.Header))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Cell looks a formatted cell up by header name for the given row index;
// it returns "" when absent. Tests use it to check result shapes.
func (t *Table) Cell(row int, header string) string {
	for i, h := range t.Header {
		if h == header && row < len(t.Rows) && i < len(t.Rows[row]) {
			return t.Rows[row][i]
		}
	}
	return ""
}

// CellF parses Cell as a float64 (0 when absent or unparsable).
func (t *Table) CellF(row int, header string) float64 {
	var f float64
	fmt.Sscanf(t.Cell(row, header), "%g", &f)
	return f
}

// FindRow returns the index of the first row whose first cell equals label,
// or -1.
func (t *Table) FindRow(label string) int {
	for i, r := range t.Rows {
		if len(r) > 0 && r[0] == label {
			return i
		}
	}
	return -1
}

// JSON renders the table as an indented JSON object with id, title,
// header, rows, and notes — the machine-readable artifact bench-smoke
// archives in CI.
func (t *Table) JSON() string {
	b, err := json.MarshalIndent(t, "", "  ")
	sim.Must(err) // Table holds only strings; marshaling cannot fail
	return string(b)
}

// CSV renders the table as comma-separated values (header row first), for
// plotting the figure series outside the tool.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	for i, h := range t.Header {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(h))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
