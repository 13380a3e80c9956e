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
	"sync"
	"testing"
	"time"

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

// TestCopyPrefixedLines pins the framing primitive: every line gets the
// prefix, and a final unterminated line (a crashing worker's last words)
// is still emitted.
func TestCopyPrefixedLines(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	CopyPrefixedLines(&buf, &mu, "[worker 3] ", strings.NewReader("alpha\nbeta\n\ngamma"))
	want := "[worker 3] alpha\n[worker 3] beta\n[worker 3] \n[worker 3] gamma\n"
	if buf.String() != want {
		t.Errorf("framed output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestCopyPrefixedLinesConcurrent: two sources sharing one mutex and
// destination never interleave mid-line — the bug this framing fixes.
func TestCopyPrefixedLinesConcurrent(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	const lines = 200
	src := func(id int) string {
		var sb strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&sb, "worker %d line %d\n", id, i)
		}
		return sb.String()
	}
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			CopyPrefixedLines(&buf, &mu, fmt.Sprintf("[worker %d] ", id), strings.NewReader(src(id)))
		}(id)
	}
	wg.Wait()

	framed := regexp.MustCompile(`^\[worker ([01])\] worker ([01]) line \d+$`)
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(got) != 2*lines {
		t.Fatalf("%d framed lines, want %d", len(got), 2*lines)
	}
	for _, line := range got {
		m := framed.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed framed line %q", line)
		}
		if m[1] != m[2] {
			t.Errorf("line %q framed under the wrong worker", line)
		}
	}
}

// TestCopyPrefixedLinesDrainsAfterLongLine: a line over the 1 MiB cap
// ends the framing with one truncation notice, but src is still read to
// EOF, so a worker that keeps writing stderr after such a line never
// blocks on a full pipe.
func TestCopyPrefixedLinesDrainsAfterLongLine(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() // unblocks the writer if the copy stopped reading
	wrote := make(chan error, 1)
	go func() {
		_, err := w.Write(append(bytes.Repeat([]byte{'x'}, 2<<20), '\n'))
		for n := 0; err == nil && n < 220<<10; {
			var k int
			k, err = fmt.Fprintf(w, "short line %d\n", n)
			n += k
		}
		w.Close()
		wrote <- err
	}()
	var buf bytes.Buffer
	var mu sync.Mutex
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		CopyPrefixedLines(&buf, &mu, "[worker 0] ", r)
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked 10s after its 2 MiB line: the pipe is no longer read")
	}
	<-copied
	if n := strings.Count(buf.String(), "(stderr truncated: "); n != 1 {
		t.Errorf("%d truncation notices, want 1:\n%.200s", n, buf.String())
	}
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
	b := Subprocess{Procs: 2, Chunk: 2, Stderr: &buf}
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
	out, err := Subprocess{Procs: 2, Chunk: 2, Stderr: &buf}.Run(context.Background(), spec, results.Params{Trials: n}, n, nil)
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
// naming that worker's failure.
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
	_, err = Subprocess{Procs: 1, Chunk: 2, Stderr: &buf}.Run(context.Background(), spec, results.Params{Trials: n}, n, nil)
	if err == nil || !strings.Contains(err.Error(), "[4,6)") || !strings.Contains(err.Error(), "exit status 3") {
		t.Errorf("err = %v, want the crashed worker's failure\nstderr:\n%s", err, buf.String())
	}
}
