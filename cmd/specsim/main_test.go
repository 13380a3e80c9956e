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
