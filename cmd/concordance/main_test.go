package main

import (
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
)

func TestSmoke(t *testing.T) {
	out := cmdtest.Run(t, "", "-schemes", "unsafe")
	if !strings.Contains(out, "7/7 cells concordant") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestSmokeJSON: at default params -json prints the committed
// concordance baseline record's cells byte for byte.
func TestSmokeJSON(t *testing.T) {
	cmdtest.MatchBaselineCells(t, cmdtest.Run(t, "", "-json"), "concordance")
}
