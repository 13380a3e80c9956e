package main

import (
	"encoding/json"
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
)

func TestSmoke(t *testing.T) {
	out := cmdtest.Run(t, "", "-schemes", "unsafe")
	if !strings.Contains(out, "Gadget|Ordering") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestSmokeJSON: at default params -json prints the committed Table 1
// baseline record's cells byte for byte, and a scheme subset prints one
// cell per gadget × ordering combination of each scheme.
func TestSmokeJSON(t *testing.T) {
	cmdtest.MatchBaselineCells(t, cmdtest.Run(t, "", "-json"), "table1")

	out := cmdtest.Run(t, "", "-schemes", "unsafe,dom", "-json", "-parallel", "2")
	var cells []struct {
		Scheme     string `json:"scheme"`
		Gadget     string `json:"gadget"`
		Ordering   string `json:"ordering"`
		Vulnerable bool   `json:"vulnerable"`
	}
	if err := json.Unmarshal([]byte(out), &cells); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	// 7 gadget×ordering combos × 2 schemes.
	if len(cells) != 14 {
		t.Errorf("got %d cells, want 14", len(cells))
	}
}
