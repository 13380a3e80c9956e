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
