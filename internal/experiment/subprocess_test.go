package experiment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"specinterference/internal/results"
)

// test-stderr is a spec whose shards write diagnostics to stderr — from
// inside the worker process when run under the subprocess backend — so
// the framing of concurrent workers' stderr can be pinned.
func init() {
	Register(&Spec{
		Name: "test-stderr",
		Plan: func(p results.Params) (int, error) { return p.Trials, nil },
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			fmt.Fprintf(os.Stderr, "shard %d reporting\n", i)
			return float64(i), nil
		},
		NewShard: func() any { return new(float64) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			return nil, fmt.Errorf("framing tests never aggregate")
		},
	})
}

// TestSubprocessStderrFraming is the end-to-end pin: stderr from
// concurrent worker processes arrives line-framed and attributed, and
// every shard's diagnostic line survives. A speculative backup can run a
// shard twice, so a diagnostic may appear more than once.
func TestSubprocessStderrFraming(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec, err := Lookup("test-stderr")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var buf bytes.Buffer
	b := Subprocess{Procs: 2, Stderr: &buf}
	out, err := b.Run(context.Background(), spec, results.Params{Trials: n}, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != float64(i) {
			t.Errorf("shard %d = %v, want %v", i, v, float64(i))
		}
	}

	framed := regexp.MustCompile(`^\[worker \d+\] shard (\d+) reporting$`)
	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		m := framed.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("stderr line %q is not worker-framed", line)
		}
		seen[m[1]]++
	}
	for i := 0; i < n; i++ {
		if seen[strconv.Itoa(i)] == 0 {
			t.Errorf("shard %d diagnostic missing (%v)", i, seen)
		}
	}
	if len(seen) != n {
		t.Errorf("saw %d distinct shard diagnostics, want %d (%v)", len(seen), n, seen)
	}
}

// crashOnceEnv names the marker file test-crash-once claims before its
// one crash; TestSubprocessWorkerCrash sets it for the worker processes.
const crashOnceEnv = "SPECINTERFERENCE_TEST_CRASH_ONCE"

// test-crash-once is a spec whose shard crashShard kills its worker
// process the first time any worker runs it. The first run claims a
// marker file with O_EXCL, so exactly one process crashes even when a
// backup runs the shard on two workers at once.
const crashShard = 5

func init() {
	Register(&Spec{
		Name: "test-crash-once",
		Plan: func(p results.Params) (int, error) { return p.Trials, nil },
		Run: func(_ context.Context, _ any, p results.Params, i int) (any, error) {
			if path := os.Getenv(crashOnceEnv); i == crashShard && path != "" {
				if f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
					f.Close()
					os.Exit(3)
				}
			}
			return float64(i), nil
		},
		NewShard: func() any { return new(float64) },
		Aggregate: func(p results.Params, shards []any) (*results.Record, error) {
			return nil, fmt.Errorf("crash tests never aggregate")
		},
	})
}

// TestSubprocessWorkerCrash pins crash recovery: a worker process that
// dies mid-span loses only its lease, and the undone remainder runs on
// the surviving worker, so the run still returns every value in index
// order.
func TestSubprocessWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	t.Setenv(crashOnceEnv, filepath.Join(t.TempDir(), "crashed"))
	spec, err := Lookup("test-crash-once")
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	var buf bytes.Buffer
	out, err := Subprocess{Procs: 2, Stderr: &buf}.Run(context.Background(), spec, results.Params{Trials: n}, n, nil)
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, buf.String())
	}
	if len(out) != n {
		t.Fatalf("%d values, want %d", len(out), n)
	}
	for i, v := range out {
		if v != float64(i) {
			t.Errorf("shard %d = %v, want %v", i, v, float64(i))
		}
	}
	if _, err := os.Stat(os.Getenv(crashOnceEnv)); err != nil {
		t.Errorf("shard %d never crashed a worker: %v", crashShard, err)
	}
}

// TestSubprocessAllWorkersExit: when the only worker crashes, no worker
// is left to take over its shards, and the run fails with an error
// naming that worker's failure and its grant (12 shards make one-shard
// grants, so the crash lands in [5,6)).
func TestSubprocessAllWorkersExit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	t.Setenv(crashOnceEnv, filepath.Join(t.TempDir(), "crashed"))
	spec, err := Lookup("test-crash-once")
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	var buf bytes.Buffer
	_, err = Subprocess{Procs: 1, Stderr: &buf}.Run(context.Background(), spec, results.Params{Trials: n}, n, nil)
	if err == nil || !strings.Contains(err.Error(), "[5,6)") || !strings.Contains(err.Error(), "exit status 3") {
		t.Errorf("err = %v, want the crashed worker's failure\nstderr:\n%s", err, buf.String())
	}
}
