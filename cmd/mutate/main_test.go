package main

import (
	"reflect"
	"testing"
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
