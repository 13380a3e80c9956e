// Package cmdtest builds and runs a cmd/ binary for its package's smoke
// tests: Main builds the package's main program at most once per test
// process, Run, RunCapture and RunFail execute it, and MatchBaseline
// checks an experiment CLI's -json output against the committed baseline
// record.
package cmdtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"specinterference/internal/results"
)

// built is the package's main program, built on first use into the
// directory Main created.
var built struct {
	once sync.Once
	dir  string // set by Main
	bin  string
	err  error
}

// Main runs a cmd package's tests; call it from the package's TestMain.
// The first Run, RunCapture or RunFail builds the package's main program
// into a temporary directory, every later call reuses that binary, and
// Main removes the directory when the tests are done.
func Main(m *testing.M) {
	dir, err := os.MkdirTemp("", "cmdtest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmdtest:", err)
		os.Exit(1)
	}
	built.dir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// binary returns the path of the package's main program, built from
// the test's working directory on the first call.
func binary(t *testing.T) string {
	t.Helper()
	if built.dir == "" {
		t.Fatal("cmdtest: the package's TestMain must call cmdtest.Main")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	built.once.Do(func() {
		bin := filepath.Join(built.dir, "cmd.bin")
		if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
			built.err = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		built.bin = bin
	})
	if built.err != nil {
		t.Fatal(built.err)
	}
	return built.bin
}

// MatchBaseline fails the test unless out, an experiment CLI's -json
// output, is one line holding a sealed record whose hash validates and
// which results.Diff reads as identical to the committed baseline record
// of exp. Run the CLI at results.BaselineParams(exp).
func MatchBaseline(t *testing.T, out, exp string) {
	t.Helper()
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("-json output is not one line:\n%s", out)
	}
	var rec results.Record
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("-json output is not a record: %v\n%s", err, out)
	}
	if rec.Hash == "" {
		t.Fatalf("-json record carries no hash:\n%s", out)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("-json record: %v", err)
	}
	path := filepath.Join("..", "..", "internal", "results", "testdata", "baseline", exp+".jsonl")
	recs, err := results.ReadFile(path)
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("committed baseline %s holds %d records, want 1", path, len(recs))
	}
	if d := results.Diff(recs[0], &rec); d.Class != results.Identical {
		t.Errorf("-json record differs from the committed baseline %s:\n%s", path, d.Format())
	}
}

// Run executes the package's main program with args (feeding stdin when
// non-empty) and returns stdout. A build failure, non-zero exit or empty
// stdout fails the test.
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

// run executes the package's main program, returning stdout, stderr and
// the exit error (nil on success).
func run(t *testing.T, stdin string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
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
