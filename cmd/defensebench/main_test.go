package main

import (
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
	"specinterference/internal/results"
)

func TestMain(m *testing.M) { cmdtest.Main(m) }

func TestSmoke(t *testing.T) {
	out := cmdtest.Run(t, "", "-iters", "50", "-schemes", "fence-spectre")
	if !strings.Contains(out, "Figure 12") || !strings.Contains(out, "geomean") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestSmokeJSON: at the baseline params, default schemes included, -json
// prints a record identical to the committed Figure 12 baseline record.
func TestSmokeJSON(t *testing.T) {
	cmdtest.MatchBaseline(t, cmdtest.Run(t, "", "-iters", "120", "-json"), results.ExpFigure12)
}

// TestBadIters: -iters 0 fails in figure12's planning, with its error,
// before the remote backend starts its coordinator or any worker.
func TestBadIters(t *testing.T) {
	out := cmdtest.RunFail(t, "", "-iters", "0", "-backend", "remote", "-procs", "1")
	if !strings.Contains(out, "defensebench: experiment: figure12 iters must be >= 1, got 0") || strings.Contains(out, "worker") {
		t.Errorf("-iters 0: want figure12's planning error and no worker:\n%s", out)
	}
}
