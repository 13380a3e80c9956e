package main

import (
	"strings"
	"testing"

	"specinterference/internal/cmdtest"
)

func TestMain(m *testing.M) { cmdtest.Main(m) }

func TestSmoke(t *testing.T) {
	out := cmdtest.Run(t, "movi r1, 2\nhalt\n")
	if !strings.Contains(out, "cycles") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestDetect runs the static analysis on a program whose correct path
// stores through a misaligned address and loads the containing word, the
// word-granular memory the simulator, the emulator and the detector
// share.
func TestDetect(t *testing.T) {
	prog := `
movi r1, 4096
movi r2, 7
store r2, 4(r1)
load r3, 0(r1)
blt r3, r0, skip
skip:
halt
`
	out := cmdtest.Run(t, prog, "-detect", "-scheme", "dom")
	if !strings.Contains(out, "\nbranch@4: ") {
		t.Errorf("no window for the branch at pc 4:\n%s", out)
	}
}

// TestBadMax: a cycle budget below 1 fails before the program is
// assembled, naming the flag and its value, instead of simulating
// nothing and reporting that the cores never halted.
func TestBadMax(t *testing.T) {
	for _, max := range []string{"0", "-5"} {
		out := cmdtest.RunFail(t, "movi r1, 2\nhalt\n", "-max", max)
		if !strings.Contains(out, "specsim: -max "+max+" is below 1") || strings.Contains(out, "cycles elapsed") {
			t.Errorf("-max %s: want an error naming the flag and value:\n%s", max, out)
		}
	}
}

// TestUnexpectedArguments: a positional argument exits 1 naming it,
// before any program is read from stdin.
func TestUnexpectedArguments(t *testing.T) {
	out := cmdtest.RunFail(t, "", "examples")
	if !strings.Contains(out, "specsim: unexpected arguments: [examples]") || strings.Contains(out, "empty program") {
		t.Errorf("want an error naming the arguments:\n%s", out)
	}
}
