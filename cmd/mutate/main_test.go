package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"pvfsib/internal/analysis/suite"
)

// TestCatalogueApplies: every row's old text occurs exactly once in its
// file, so an edit of a mutated line fails here, not halfway through a
// ledger run.
func TestCatalogueApplies(t *testing.T) {
	rows, err := readCatalogue("../..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range rows {
		if seen[m.Name] {
			t.Errorf("row %s appears twice", m.Name)
		}
		seen[m.Name] = true
		if m.Class == "" || m.Old == m.New {
			t.Errorf("row %s: no class, or no change", m.Name)
		}
	}
}

// TestVerdictRule: an analyzer earns its place with a row nothing else
// catches, or one it catches at least ten times sooner than the first test
// gate; a row another gate catches about as soon earns it nothing.
func TestVerdictRule(t *testing.T) {
	rows := []row{
		{Name: "alone", Gates: []gate{
			{Gate: "build"},
			{Gate: "pvfslint", Caught: true, Seconds: 2, Analyzers: map[string]float64{"a": 1}},
			{Gate: "package tests"}, {Gate: "tests"}, {Gate: "hash"},
		}},
		{Name: "sooner", Gates: []gate{
			{Gate: "build"},
			{Gate: "pvfslint", Caught: true, Seconds: 2, Analyzers: map[string]float64{"b": 1.5, "c": 1}},
			{Gate: "package tests"}, {Gate: "tests", Caught: true, Seconds: 10}, {Gate: "hash"},
		}},
		{Name: "dropped", Gates: []gate{{Gate: "build", Caught: true}}},
	}
	var got []verdict
	for _, name := range []string{"a", "b", "c", "d"} {
		got = append(got, judge(name, rows))
	}
	want := []verdict{
		{Analyzer: "a", Rows: []string{"alone"}, Sole: []string{"alone"}, Sooner: []string{}, Verdict: "stays"},
		{Analyzer: "b", Rows: []string{"sooner"}, Sole: []string{}, Sooner: []string{}, Verdict: "cut"},
		{Analyzer: "c", Rows: []string{"sooner"}, Sole: []string{}, Sooner: []string{"sooner"}, Verdict: "stays"},
		{Analyzer: "d", Rows: []string{}, Sole: []string{}, Sooner: []string{}, Verdict: "cut"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts\n%+v\nwant\n%+v", got, want)
	}
}

// TestLedgerMatchesSuite: the committed ledger judges exactly the suite's
// analyzers, each of which stays, over one row per catalogue entry, so a
// stale ledger, or a cut verdict not yet applied, fails here.
func TestLedgerMatchesSuite(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_mutation.json")
	if err != nil {
		t.Fatal(err)
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		t.Fatal(err)
	}
	var names, judged []string
	for _, a := range suite.All() {
		names = append(names, a.Name)
	}
	for _, v := range led.Analyzers {
		judged = append(judged, v.Analyzer)
		if v.Verdict != "stays" {
			t.Errorf("the ledger's verdict on %s is %q: apply it", v.Analyzer, v.Verdict)
		}
	}
	if !reflect.DeepEqual(judged, names) {
		t.Errorf("the ledger judges %v, the suite is %v", judged, names)
	}
	rows, err := readCatalogue("../..")
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, m := range rows {
		want = append(want, m.Name)
	}
	for _, r := range led.Rows {
		got = append(got, r.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the ledger's rows are %v, the catalogue's %v", got, want)
	}
}
