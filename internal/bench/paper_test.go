package bench

import (
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// paperPath is the committed paper artifact, byte for byte what
// `make bench-paper` writes; experimentsPath carries its rendering.
const (
	paperPath       = "../../BENCH_paper.json"
	experimentsPath = "../../EXPERIMENTS.md"
	paperBlockBegin = "<!-- paper-vs-measured: rendered from BENCH_paper.json by `make bench-paper`; do not edit -->\n"
	paperBlockEnd   = "<!-- end paper-vs-measured -->\n"
)

// renderPaper renders the paper table as EXPERIMENTS.md's block: one
// markdown row per cited cell or ratio, a claim shown only where it or the
// experiment changes, then the shape claims.
func renderPaper(t *Table) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString(strings.Repeat("|---", len(t.Header)) + "|\n")
	last := ""
	for _, r := range t.Rows {
		cells := slices.Clone(r)
		if key := r[0] + "\x00" + r[len(r)-1]; key == last {
			cells[len(cells)-1] = "〃"
		} else {
			last = key
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	b.WriteString("\nShape claims the paper makes in words:\n\n")
	for _, n := range t.Notes {
		b.WriteString("- " + n + "\n")
	}
	return b.String()
}

// TestExperimentsPaperBlock: EXPERIMENTS.md's paper-vs-measured block is the
// committed BENCH_paper.json rendered, and that file holds the paper values,
// claims and shape claims the registry cites, in registry order — so a
// number edited by hand in either file, or a cite changed without
// `make bench-paper`, fails here. -update rewrites the block from the file.
func TestExperimentsPaperBlock(t *testing.T) {
	raw, err := os.ReadFile(paperPath)
	if err != nil {
		t.Fatal(err)
	}
	var file Table
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var cited [][]string
	var shapes []string
	for _, e := range Registry {
		for _, c := range e.paper {
			if c.col == "" {
				shapes = append(shapes, e.ID+": "+c.claim)
			} else {
				cited = append(cited, []string{e.ID, strconv.FormatFloat(c.paper, 'f', -1, 64), c.claim})
			}
		}
	}
	if len(file.Rows) != len(cited) || !slices.Equal(file.Notes, shapes) {
		t.Errorf("%s holds %d rows and %d shape claims, the registry cites %d and %d (make bench-paper regenerates it)",
			paperPath, len(file.Rows), len(file.Notes), len(cited), len(shapes))
	}
	for i := range min(len(file.Rows), len(cited)) {
		if r := file.Rows[i]; !slices.Equal([]string{r[0], r[3], r[6]}, cited[i]) {
			t.Errorf("%s row %d = %v, the registry cites %v", paperPath, i, r, cited[i])
		}
	}

	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	begin, end := strings.Index(text, paperBlockBegin), strings.Index(text, paperBlockEnd)
	if begin < 0 || end < begin {
		t.Fatalf("%s lacks the paper-vs-measured block markers", experimentsPath)
	}
	begin += len(paperBlockBegin)
	want := renderPaper(&file)
	if *update {
		if err := os.WriteFile(experimentsPath, []byte(text[:begin]+want+text[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := text[begin:end]; got != want {
		t.Errorf("%s's paper-vs-measured block differs from %s rendered (make bench-paper rewrites it):\n%s",
			experimentsPath, paperPath, firstDiff(want, got))
	}
}
