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
