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
	if !strings.Contains(out, "Gadget|Ordering") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestSmokeJSON: at default params -json prints a record identical to
// the committed Table 1 baseline record.
func TestSmokeJSON(t *testing.T) {
	cmdtest.MatchBaseline(t, cmdtest.Run(t, "", "-json"), results.ExpTable1)
}

// TestBadSchemes: an empty or unknown scheme name fails planning, naming
// the name, before the remote backend starts its coordinator or any
// worker.
func TestBadSchemes(t *testing.T) {
	for flag, name := range map[string]string{"unsafe,,dom": `""`, "bogus": `"bogus"`} {
		out := cmdtest.RunFail(t, "", "-schemes", flag, "-backend", "remote", "-procs", "1")
		if !strings.Contains(out, "unknown scheme "+name) || strings.Contains(out, "worker") {
			t.Errorf("-schemes %s: want a planning error naming %s and no worker:\n%s", flag, name, out)
		}
	}
}
