package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"specinterference/internal/experiment"
	"specinterference/internal/results"
)

// TestMain lets this test binary serve as a -shard-worker process when
// TestSubprocessBackupWins re-execs it.
func TestMain(m *testing.M) {
	experiment.RunWorkerIfRequested()
	os.Exit(m.Run())
}

// pipeWorker is an in-memory pipe worker for drive: the test plays the
// worker process on the other ends of two io.Pipes.
type pipeWorker struct {
	stdinR  *io.PipeReader // the worker reads requests here
	stdinW  *io.PipeWriter // drive writes requests here
	stdoutR *io.PipeReader // drive reads result lines here
	stdoutW *io.PipeWriter // the worker writes result lines here
	killed  atomic.Bool
}

func newPipeWorker() *pipeWorker {
	w := &pipeWorker{}
	w.stdinR, w.stdinW = io.Pipe()
	w.stdoutR, w.stdoutW = io.Pipe()
	return w
}

// kill is what drive calls to end a misbehaving worker: the
// process dies, so both of its pipe ends close.
func (w *pipeWorker) kill() {
	w.killed.Store(true)
	w.stdinR.Close()
	w.stdoutW.Close()
}

// drive runs c.drive against w as the named worker.
func (w *pipeWorker) drive(c *Coordinator, name string) error {
	return c.drive(context.Background(), name, w.stdinW, w.stdoutR, w.kill)
}

// serve runs the real pipe-worker body on w until drive closes its
// stdin, then closes stdout as an exiting process would.
func (w *pipeWorker) serve() {
	workerMain(w.stdinR, w.stdoutW, io.Discard)
	w.stdoutW.Close()
}

// resultLine encodes the remote-test spec's result line for a shard as a
// pipe worker writes it.
func resultLine(p results.Params, shard int) string {
	value := mustJSON(float64(shard*shard) + float64(p.Seed))
	return string(mustJSON(experiment.ShardLine{Shard: shard, Value: value})) + "\n"
}

// TestPipeRejectsBadWorker: a pipe worker that breaks the protocol
// mid-grant is killed and its lease dropped at once, and a healthy
// worker then completes the run with the exact values — drive's checks
// end the worker, never the run.
func TestPipeRejectsBadWorker(t *testing.T) {
	p := results.Params{Trials: 8, Seed: 3}
	for _, tc := range []struct {
		name  string
		lines func(req workerRequest) string // what the bad worker writes
		want  string
	}{
		{"malformed", func(workerRequest) string { return "{not json\n" }, "bad result line"},
		{"out of grant", func(req workerRequest) string { return resultLine(p, req.End) }, "out-of-grant shard"},
		{"repeated", func(req workerRequest) string {
			return resultLine(p, req.Start) + resultLine(p, req.Start)
		}, "twice"},
		{"corrupt payload", func(req workerRequest) string {
			return fmt.Sprintf("{\"shard\":%d,\"value\":\"zero\"}\n", req.Start)
		}, "corrupt payload"},
		{"exits mid-grant", func(req workerRequest) string { return resultLine(p, req.Start) }, "stdout closed after 1 of 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := NewCoordinator(testSpec(t), p, p.Trials, Config{Chunk: 4})
			if err != nil {
				t.Fatal(err)
			}
			bad := newPipeWorker()
			go func() {
				var req workerRequest
				if err := json.NewDecoder(bad.stdinR).Decode(&req); err != nil {
					return
				}
				io.WriteString(bad.stdoutW, tc.lines(req))
				bad.stdoutW.Close()
			}()
			err = bad.drive(coord, "bad")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("drive = %v, want an error containing %q", err, tc.want)
			}
			if !bad.killed.Load() {
				t.Error("the misbehaving worker was not killed")
			}
			if st := coord.Stats(); st.Leases != 0 || st.PendingSpans != 2 {
				t.Errorf("after the rejection: %d leases, %d pending spans; want the lease dropped and its remainder requeued", st.Leases, st.PendingSpans)
			}

			good := newPipeWorker()
			go good.serve()
			if err := good.drive(coord, "good"); err != nil {
				t.Fatal(err)
			}
			vals, err := coord.Values()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if want := float64(i*i) + float64(p.Seed); v != want {
					t.Errorf("shard %d = %v, want %v", i, v, want)
				}
			}
		})
	}
}

// TestPipeBackupOvertakesStall: a pipe worker that stalls on its grant
// is overtaken by a backup copy on an idle worker, and the stalled
// worker's late, byte-identical lines are absorbed as duplicates.
func TestPipeBackupOvertakesStall(t *testing.T) {
	p := results.Params{Trials: 6, Seed: 1}
	coord, err := NewCoordinator(testSpec(t), p, p.Trials, Config{Chunk: 6})
	if err != nil {
		t.Fatal(err)
	}
	slow := newPipeWorker()
	granted, release := make(chan workerRequest), make(chan struct{})
	go func() {
		dec := json.NewDecoder(slow.stdinR)
		var req workerRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		granted <- req
		<-release
		for i := req.Start; i < req.End; i++ {
			io.WriteString(slow.stdoutW, resultLine(p, i))
		}
		dec.Decode(&req) // EOF: drive closed stdin
		slow.stdoutW.Close()
	}()
	slowDone := make(chan error, 1)
	go func() { slowDone <- slow.drive(coord, "slow") }()
	if req := <-granted; req.Start != 0 || req.End != 6 {
		t.Fatalf("slow worker granted [%d,%d), want [0,6)", req.Start, req.End)
	}

	fast := newPipeWorker()
	go fast.serve()
	if err := fast.drive(coord, "fast"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("stalled worker: %v", err)
	}
	if _, err := coord.Values(); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.BackupsIssued != 1 || st.BackupsWon != 6 || slow.killed.Load() {
		t.Errorf("backups issued %d, won %d, stalled worker killed %v; want 1, 6, false", st.BackupsIssued, st.BackupsWon, slow.killed.Load())
	}
}

// TestSubprocessBackupWins is the subprocess backend's backup gate: two
// real -shard-worker processes (this test binary re-exec'd), the first
// slowed to 25ms per shard by the fault shim, must finish the run with
// at least one shard won by a backup lease. The fast worker drains the
// queue in a few milliseconds, while the slow one needs 150ms for its
// six-shard chunk, so a coordinator that never grants a backup, or whose
// backups never land first, fails here.
func TestSubprocessBackupWins(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	t.Setenv(slowWorkerEnv, "25ms")
	p := results.Params{Trials: 48, Seed: 2}
	coord, err := NewCoordinator(testSpec(t), p, p.Trials, Config{Chunk: 6})
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if err := drivePipeWorkers(context.Background(), experiment.Subprocess{Procs: 2, Stderr: &stderr}, coord); err != nil {
		t.Fatal(err)
	}
	vals, err := coord.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := float64(i*i) + float64(p.Seed); v != want {
			t.Errorf("shard %d = %v, want %v", i, v, want)
		}
	}
	if st := coord.Stats(); st.BackupsWon < 1 {
		t.Errorf("backups: %d issued, %d won; want at least one won. Worker stderr:\n%s", st.BackupsIssued, st.BackupsWon, stderr.String())
	}
}
