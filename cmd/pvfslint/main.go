// Pvfslint runs the repository's static-analysis suite of two analyzers:
// nopanic (no panic in library packages) and okreason (every suppression
// names an analyzer of the suite and gives a reason). The mutation ledger
// (cmd/mutate, DESIGN.md §6.1) decides which analyzers keep their place;
// what tests catch as soon, no analyzer repeats.
//
// Usage:
//
//	pvfslint [flags] [packages]     # default ./...
//
// It loads the packages with go list and analyzes each one's non-test
// files.
//
// Flags:
//
//	-json          findings to stdout as a JSON array (file, line, column,
//	               analyzer, message); human-readable lines still go to stderr
//	-time          report per-analyzer wall time to stderr
//	-budget DUR    fail (exit 1) if the whole suite takes longer than DUR,
//	               even with no findings
//	-only NAMES    run only the comma-separated analyzers (unknown names are
//	               a usage error)
//
// Exit codes: 0 clean, 1 findings (or over the -budget time), 2 usage or
// load error (bad flags, unresolvable patterns, type errors).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"pvfsib/internal/analysis"
	"pvfsib/internal/analysis/load"
	"pvfsib/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the stable JSON shape of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	analyzers := suite.All()

	var (
		jsonOut  bool
		timeOut  bool
		budget   time.Duration
		only     string
		patterns []string
	)
	for i := 0; i < len(args); i++ {
		a := args[i]
		takeValue := func(name string) (string, bool) {
			if v, ok := strings.CutPrefix(a, "-"+name+"="); ok {
				return v, true
			}
			if a == "-"+name && i+1 < len(args) {
				i++
				return args[i], true
			}
			return "", false
		}
		switch {
		case a == "-json":
			jsonOut = true
		case a == "-time":
			timeOut = true
		case strings.HasPrefix(a, "-only"):
			v, ok := takeValue("only")
			if !ok {
				fmt.Fprintln(stderr, "pvfslint: -only needs a comma-separated analyzer list")
				return 2
			}
			only = v
		case strings.HasPrefix(a, "-budget"):
			v, ok := takeValue("budget")
			if !ok {
				fmt.Fprintln(stderr, "pvfslint: -budget needs a duration argument")
				return 2
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				fmt.Fprintf(stderr, "pvfslint: bad -budget: %v\n", err)
				return 2
			}
			budget = d
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(stderr, "pvfslint: unknown flag %s\n", a)
			return 2
		default:
			patterns = append(patterns, a)
		}
	}
	if only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "pvfslint: -only: unknown analyzer %q\n", strings.TrimSpace(name))
				return 2
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, timing, err := load.Packages(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "pvfslint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stderr, f)
	}
	if jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     f.Position.Filename,
				Line:     f.Position.Line,
				Column:   f.Position.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "pvfslint: encoding findings: %v\n", err)
			return 2
		}
	}

	var total time.Duration
	for _, d := range timing {
		total += d
	}
	if timeOut {
		names := make([]string, 0, len(timing))
		for name := range timing {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if timing[names[i]] != timing[names[j]] {
				return timing[names[i]] > timing[names[j]]
			}
			return names[i] < names[j]
		})
		fmt.Fprintln(stderr, "analyzer wall time:")
		for _, name := range names {
			fmt.Fprintf(stderr, "  %-12s %8.1fms\n", name, float64(timing[name].Microseconds())/1000)
		}
		fmt.Fprintf(stderr, "  %-12s %8.1fms\n", "total", float64(total.Microseconds())/1000)
	}

	status := 0
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "pvfslint: %d finding(s)\n", len(findings))
		status = 1
	}
	if budget > 0 && total > budget {
		fmt.Fprintf(stderr, "pvfslint: suite took %s, over the %s budget\n",
			total.Round(time.Millisecond), budget)
		status = 1
	}
	return status
}
