package main

import (
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
	"specinterference/internal/results"
)

func TestMain(m *testing.M) { cmdtest.Main(m) }

func TestSmoke(t *testing.T) {
	out := cmdtest.Run(t, "", "-poc", "dcache", "-bits", "2", "-reps", "1")
	if !strings.Contains(out, "Figure 11") || !strings.Contains(out, "reps=") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestSmokeJSON: at the baseline params -json prints a record identical
// to the committed Figure 11 baseline record.
func TestSmokeJSON(t *testing.T) {
	out := cmdtest.Run(t, "", "-poc", "both", "-bits", "4", "-reps", "1,3", "-seed", "1", "-json")
	cmdtest.MatchBaseline(t, out, results.ExpFigure11)
}

// TestBadReps: a -reps value below 1 fails in figure11's planning, with
// its error, before the remote backend starts its coordinator or any
// worker, and a -reps value that is not a number fails to parse. -reps 0
// plans no shards at all, so -reps 1,0 is the case that would reach a
// worker if planning let it through.
func TestBadReps(t *testing.T) {
	for _, reps := range []string{"0", "1,0"} {
		out := cmdtest.RunFail(t, "", "-reps", reps, "-backend", "remote", "-procs", "1")
		if !strings.Contains(out, "covertbench: experiment: figure11 reps must be >= 1, got 0") || strings.Contains(out, "worker") {
			t.Errorf("-reps %s: want figure11's planning error and no worker:\n%s", reps, out)
		}
	}
	if out := cmdtest.RunFail(t, "", "-reps", "1,x"); !strings.Contains(out, `covertbench: bad reps value "x"`) {
		t.Errorf("-reps 1,x: want a parse error naming the value:\n%s", out)
	}
}
