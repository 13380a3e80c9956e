// Package cmdtest builds and runs the cmd/ binaries for smoke tests: each
// test compiles the main package in its own working directory and asserts
// a zero exit with non-empty output on a tiny workload, or compares the
// output with a committed baseline record.
package cmdtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// MatchBaselineCells fails the test unless out, a cmd/<name> binary's
// -json output at default params, is byte for byte the cell list of the
// committed baseline record of exp ("table1" or "concordance"): the
// record's cells value, compacted, plus the encoder's newline.
func MatchBaselineCells(t *testing.T, out, exp string) {
	t.Helper()
	path := filepath.Join("..", "..", "internal", "results", "testdata", "baseline", exp+".jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	// One record per baseline file: a second line fails the decode.
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("committed baseline %s: %v", path, err)
	}
	var payload struct {
		Cells json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(rec[exp], &payload); err != nil || payload.Cells == nil {
		t.Fatalf("committed baseline %s has no %s.cells (%v)", path, exp, err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, payload.Cells); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	w := want.String()
	if out == w {
		return
	}
	i := 0
	for i < len(out) && i < len(w) && out[i] == w[i] {
		i++
	}
	lo := max(0, i-80)
	t.Errorf("-json output (%d bytes) differs from %s.cells of %s (%d bytes) at byte %d:\n got: …%s\nwant: …%s",
		len(out), exp, path, len(w), i, out[lo:min(len(out), i+80)], w[lo:min(len(w), i+80)])
}

// Run builds the main package in the test's working directory, executes it
// with args (feeding stdin when non-empty), and returns stdout. Any build
// failure, non-zero exit or empty stdout fails the test.
func Run(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	stdout, stderr, err := run(t, stdin, args...)
	if err != nil {
		t.Fatalf("%s: %v", strings.Join(args, " "), err)
	}
	if stdout == "" {
		t.Fatalf("%s produced no output (stderr: %s)", strings.Join(args, " "), stderr)
	}
	return stdout
}

// RunCapture is Run returning stderr alongside stdout, for asserting on
// diagnostics that must stay off stdout (-progress reporting, -store
// notices). Unlike Run it tolerates an empty stdout: some invocations
// legitimately write only to stderr.
func RunCapture(t *testing.T, stdin string, args ...string) (string, string) {
	t.Helper()
	stdout, stderr, err := run(t, stdin, args...)
	if err != nil {
		t.Fatalf("%s: %v", strings.Join(args, " "), err)
	}
	return stdout, stderr
}

// RunFail is Run for invocations that must exit non-zero (regression
// gates, validation errors). It fails the test when the command succeeds,
// and returns the combined stdout+stderr for assertions on diagnostics.
func RunFail(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	stdout, stderr, err := run(t, stdin, args...)
	if err == nil {
		t.Fatalf("%s exited zero, want failure\nstdout: %s", strings.Join(args, " "), stdout)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("%s did not run: %v", strings.Join(args, " "), err)
	}
	return stdout + stderr
}

// run builds the main package in the test's working directory and executes
// it, returning stdout, stderr and the exit error (nil on success).
func run(t *testing.T, stdin string, args ...string) (string, string, error) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "smoke.bin")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err = cmd.Run()
	if err != nil {
		err = &runError{args: args, err: err, stderr: stderr.String()}
	}
	return stdout.String(), stderr.String(), err
}

// runError decorates a command failure with its stderr.
type runError struct {
	args   []string
	err    error
	stderr string
}

func (e *runError) Error() string {
	return strings.Join(e.args, " ") + ": " + e.err.Error() + "\nstderr: " + e.stderr
}

// Unwrap exposes the underlying exec error to errors.As callers.
func (e *runError) Unwrap() error { return e.err }
