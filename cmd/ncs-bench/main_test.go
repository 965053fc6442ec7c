package main

import (
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	if err := run("table1", "sun4", 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig12SmallIters(t *testing.T) {
	if testing.Short() {
		t.Skip("echo sweep")
	}
	if err := run("fig12", "rs6000", 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunRPC(t *testing.T) {
	if err := run("rpc", "sun4", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunLoss(t *testing.T) {
	if err := run("loss", "sun4", 1); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnknown pins the failure mode: an unknown -exp value
// must return an error (main exits nonzero on it) that lists the valid
// experiments, so a typo cannot silently succeed.
func TestRunRejectsUnknown(t *testing.T) {
	err := run("fig99", "sun4", 1)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range experimentList() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-experiment error does not list %q: %v", want, err)
		}
	}
	if err := run("fig12", "cray", 1); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := run("scale", "sun4", 1); err == nil {
		t.Error("a deleted sweep is still an experiment")
	}
}

// TestExperimentListComplete pins the roster: the paper's tables and
// figures, the rpc and loss reports, and nothing else.
func TestExperimentListComplete(t *testing.T) {
	want := "all, fig10, fig11, fig12, fig13, loss, rpc, table1"
	if got := strings.Join(experimentList(), ", "); got != want {
		t.Fatalf("experiments = %q, want %q", got, want)
	}
}
