package experiments

import (
	"strings"
	"testing"
)

// TestRegistryComplete checks each entry's fields; which experiments
// exist is TestClaims' business (every claim names one, every one has a
// claim).
func TestRegistryComplete(t *testing.T) {
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if !validID(e.ID) {
			t.Errorf("experiment ID %q is not kebab-case", e.ID)
		}
		if e.Version < 1 {
			t.Errorf("experiment %q has version %d; the sweep cache key needs >= 1", e.ID, e.Version)
		}
		if e.Chart != nil && len(e.Chart.Labels) == 0 {
			t.Errorf("experiment %q declares a chart with no label columns", e.ID)
		}
	}
	if _, err := ByID("table1-1"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id resolved")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs/All length mismatch")
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"fig3-1":       true,
		"ablation-mix": true,
		"a":            true,
		"":             false,
		"Fig3-1":       false,
		"fig3--1":      false,
		"-fig3":        false,
		"fig3-":        false,
		"fig 3":        false,
		"fig_3":        false,
	} {
		if got := validID(id); got != want {
			t.Errorf("validID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestAllExperimentsRun sanity-checks the table of every registered
// experiment at every seed of the claims pass.
func TestAllExperimentsRun(t *testing.T) {
	run := paperPass(t)
	for _, id := range run.ids {
		t.Run(id, func(t *testing.T) {
			for _, tb := range run.tables[id] {
				if tb.ID != id {
					t.Errorf("table ID %q != experiment ID %q", tb.ID, id)
				}
				if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
					t.Fatal("empty table")
				}
				if out := tb.Plain(); !strings.Contains(out, tb.Columns[0]) {
					t.Error("plain rendering broken")
				}
			}
		})
	}
}
