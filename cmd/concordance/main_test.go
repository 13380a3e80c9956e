package main

import (
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
	"specinterference/internal/results"
)

func TestMain(m *testing.M) { cmdtest.Main(m) }

func TestSmoke(t *testing.T) {
	out := cmdtest.Run(t, "", "-schemes", "unsafe")
	if !strings.Contains(out, "7/7 cells concordant") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestSmokeJSON: at default params -json prints a record identical to
// the committed concordance baseline record.
func TestSmokeJSON(t *testing.T) {
	cmdtest.MatchBaseline(t, cmdtest.Run(t, "", "-json"), results.ExpConcordance)
}
